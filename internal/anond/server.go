package anond

// The daemon's HTTP surface: routing, the compute-request middleware
// (drain gate → rate limit → in-flight accounting), and graceful drain.
// Compute handlers run the scenario/optimizer layers under the request's
// context, so a disconnected client cancels its run at the backends'
// next checkpoint; Drain lets the process finish what it accepted.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Options configures a Server. The zero value serves unthrottled with a
// 1 MiB body cap.
type Options struct {
	// RatePerSecond is each client's sustained compute-request budget;
	// 0 disables rate limiting.
	RatePerSecond float64
	// Burst is the bucket depth (instantaneous overdraft); values < 1
	// are raised to 1.
	Burst float64
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
}

// Server is the anonymity-as-a-service daemon. It implements
// http.Handler; cmd/anond mounts it on an http.Server, tests mount it on
// httptest.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	group   *group
	limiter *limiter
	metrics *metrics

	// drainMu guards the accept/in-flight handshake: a request is either
	// rejected as draining or counted before Drain starts waiting.
	drainMu  sync.Mutex
	draining bool
	inFlight int
	idle     chan struct{}
}

// New builds a Server with its routes registered.
func New(opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		group:   newGroup(),
		limiter: newLimiter(opts.RatePerSecond, opts.Burst, opts.Now),
		metrics: newMetrics(opts.Now),
	}
	s.mux.HandleFunc("POST /v1/scenario", s.compute("scenario", s.handleScenario))
	s.mux.HandleFunc("POST /v1/degradation", s.compute("degradation", s.handleDegradation))
	s.mux.HandleFunc("POST /v1/optimize", s.compute("optimize", s.handleOptimize))
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics snapshots the daemon counters (the same document /v1/metrics
// serves); cmd/anond flushes it on shutdown.
func (s *Server) Metrics() MetricsResponse { return s.metrics.snapshot() }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Drain stops accepting compute requests (they answer 503, and health
// flips to draining) and blocks until every in-flight request completes
// or ctx fires. It is the handler-level half of graceful shutdown; the
// socket-level half is http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	if s.inFlight == 0 {
		s.drainMu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.drainMu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter admits one compute request unless the server is draining.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inFlight++
	return true
}

func (s *Server) exit() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.inFlight--
	if s.inFlight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// computeHandler is an endpoint handler that reports the status it
// answered and whether the response joined a coalesced flight.
type computeHandler func(w http.ResponseWriter, r *http.Request) (status int, coalesced bool)

// compute wraps a handler with the daemon middleware: drain gate, per-
// client token bucket, body cap, and metrics accounting.
func (s *Server) compute(endpoint string, h computeHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.request(endpoint)
		if !s.enter() {
			writeError(w, http.StatusServiceUnavailable, ErrorBody{
				Error: "anond: draining, not accepting new work", Class: "draining",
			})
			s.metrics.response(http.StatusServiceUnavailable, false)
			return
		}
		defer s.exit()
		if ok, retry := s.limiter.allow(clientKey(r)); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+1)))
			writeError(w, http.StatusTooManyRequests, ErrorBody{
				Error: "anond: client request rate exceeded", Class: "rate_limited",
			})
			s.metrics.response(http.StatusTooManyRequests, false)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		status, coalesced := h(w, r)
		s.metrics.response(status, coalesced)
	}
}

// clientKey identifies a client for rate limiting: the remote host
// without the ephemeral port.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// writeJSON answers status with v as one line of compact JSON: one
// marshal, a Content-Length header, and a single Write. It returns the
// status it answered, which is 500 if v does not marshal.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	body, err := json.Marshal(v)
	if err != nil {
		// Only a non-finite float fails to marshal here; answer the
		// internal error instead of a 200 with an empty body.
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody(fmt.Errorf("anond: encode response: %w", err)))
	}
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client is gone if this fails; nothing to do
	return status
}

func writeError(w http.ResponseWriter, status int, body ErrorBody) int {
	return writeJSON(w, status, body)
}
