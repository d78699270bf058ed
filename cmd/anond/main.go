// Command anond serves the anonymity analysis stack as a daemon: the
// scenario layer's three backends, the degradation analysis, and the
// §5.4 optimizer behind an HTTP JSON API (see internal/anond for the
// endpoint reference).
//
// Usage:
//
//	anond -addr :8080
//	anond -addr :8080 -rate 10 -burst 20      # per-client 10 req/s, bursts of 20
//	curl -d '{"n":100,"compromised":1,"strategy":"uniform:1,5"}' localhost:8080/v1/scenario | jq
//	curl -d '{"n":1000,"compromised":30,"backend":"mc","strategy":"fixed:5","messages":200000}' 'localhost:8080/v1/scenario?stream=1'
//
// Responses are compact single-line JSON (a stream, one compact object
// per line); pipe them to jq to read them.
//
// SIGTERM or SIGINT begins a graceful drain: health flips to 503, new
// compute requests are refused, in-flight runs finish (bounded by
// -drain-timeout), and the final metrics snapshot is flushed to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anonmix/internal/anond"
	"anonmix/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if !cliutil.Silent(err) {
			fmt.Fprintln(os.Stderr, "anond:", err)
		}
		os.Exit(cliutil.Code(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("anond", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		rate    = fs.Float64("rate", 0, "per-client compute requests per second (0 = unlimited)")
		burst   = fs.Float64("burst", 8, "per-client burst capacity")
		maxBody = fs.Int64("max-body", 1<<20, "request body cap in bytes")
		drain   = fs.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return cliutil.Usage(err)
	}

	srv := anond.New(anond.Options{
		RatePerSecond: *rate,
		Burst:         *burst,
		MaxBodyBytes:  *maxBody,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.SetPrefix("anond: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.Printf("listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received, draining (timeout %s)", *drain)

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Handler-level drain first (reject new compute work, wait for
	// in-flight runs), then the socket-level shutdown.
	if err := srv.Drain(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}

	snap, err := json.Marshal(srv.Metrics())
	if err != nil {
		return err
	}
	log.Printf("final metrics: %s", snap)
	return nil
}
