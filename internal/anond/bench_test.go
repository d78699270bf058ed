package anond

// Daemon throughput over a real socket: requests per second at 1, 8, and
// 64 concurrent clients, for a cache-hit exact scenario (measures the
// HTTP + coalescing overhead floor) and a real Monte-Carlo run (measures
// how sampling work shares the machine). Deliberately NOT in the
// Makefile SMOKE set — socket benchmarks on shared CI runners are noise;
// run them locally via `go test ./internal/anond -bench ServeScenario`.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

const (
	benchExactBody = `{"n":100,"compromised":1,"strategy":"uniform:1,5"}`
	benchMCBody    = `{"n":100,"compromised":5,"backend":"mc","strategy":"uniform:1,5","messages":20000,"seed":7}`
)

func benchServe(b *testing.B, body string, clients int) {
	b.Helper()
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	do := func() error {
		resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Warm the engine cache and the connection pool so the loop measures
	// steady-state service, not first-build cost.
	if err := do(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := do(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func BenchmarkServeScenarioExactCached(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServe(b, benchExactBody, clients)
		})
	}
}

// BenchmarkHandlerExactCached serves the cache-hot exact request in
// process through httptest.NewRecorder: routing, middleware, decoding,
// the flight and the response marshal, without a socket. The reported
// allocations include the request and recorder each iteration builds.
func BenchmarkHandlerExactCached(b *testing.B) {
	srv := New(Options{})
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/scenario", strings.NewReader(benchExactBody))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // warm the engine cache and the spec memo
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
}

func BenchmarkServeScenarioMC(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServe(b, benchMCBody, clients)
		})
	}
}
