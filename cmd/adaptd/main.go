// Command adaptd serves the adaptmr simulator as a long-running HTTP
// daemon — tuning as a service. It exposes:
//
//	POST /v1/run         execute one job under an explicit phase plan
//	POST /v1/tune        run the adaptive meta-scheduler
//	POST /v1/bruteforce  exhaustively search every plan
//	GET  /v1/stream      follow a streamed run live (SSE, ?id=<run_id>)
//	GET  /healthz        liveness (200 ok while the process is up)
//	GET  /readyz         readiness (200 ready, 503 while draining)
//	GET  /statusz        JSON status: build, queue, workers, tallies
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/pprof/   runtime profiling (only with -pprof)
//
// Requests execute on a bounded worker pool (-workers) behind a bounded
// admission queue (-queue-depth); a full queue answers 429 with
// Retry-After. Identical in-flight requests are coalesced onto a single
// evaluation. Each request is bounded by -request-timeout (requests may
// ask for less via timeout_ms). A /v1/run request naming a run_id
// streams its live elevator-depth/throughput timeseries at /v1/stream.
// Diagnostics are structured logs on stderr (-log text|json[:level]),
// each request's lines correlated by a per-request id. SIGINT/SIGTERM
// drain gracefully: admission stops (readyz flips to 503), in-flight
// work finishes and is answered, then the listener closes.
//
// Examples:
//
//	adaptd
//	adaptd -addr :8080 -workers 4 -parallel 2 -log json:debug
//	adaptd -request-timeout 5m -pprof
//
//	curl -s localhost:7070/v1/tune -d '{"job":{"bench":"sort","input_mb":512}}'
//	curl -s localhost:7070/v1/run -d '{"plan":["cc"],"run_id":"r1"}' &
//	curl -sN localhost:7070/v1/stream?id=r1
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adaptmr/internal/cliutil"
	"adaptmr/internal/server"
)

func main() {
	sf := cliutil.BindServerFlags(flag.CommandLine)
	workers := flag.Int("workers", 2, "concurrently executing requests")
	parallel := cliutil.BindParallelFlag(flag.CommandLine)
	checkInv := cliutil.BindCheckFlag(flag.CommandLine)
	logFlag := cliutil.BindLogFlag(flag.CommandLine)
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute,
		"how long shutdown waits for in-flight requests before aborting them")
	flag.Parse()

	logger, err := logFlag.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptd:", err)
		os.Exit(1)
	}
	fail := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	if err := sf.Validate(); err != nil {
		fail(err)
	}
	if *workers < 1 {
		fail(fmt.Errorf("-workers must be at least 1, got %d", *workers))
	}

	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      sf.QueueDepth,
		RequestTimeout:  sf.RequestTimeout,
		Parallelism:     *parallel,
		CheckInvariants: *checkInv,
		Logger:          logger,
		EnablePprof:     *pprofFlag,
	})
	if err != nil {
		fail(err)
	}

	httpSrv := &http.Server{Addr: sf.Addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", sf.Addr, "workers", *workers,
			"queue_depth", sf.QueueDepth, "request_timeout", sf.RequestTimeout, "pprof", *pprofFlag)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}

	// Drain: stop admitting (readyz flips to 503, new POSTs answer 503),
	// let in-flight requests finish and be answered, then close the
	// listener. The HTTP shutdown runs after the pool drain so responses
	// for drained work still reach their clients.
	logger.Info("draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	logger.Info("bye")
}
