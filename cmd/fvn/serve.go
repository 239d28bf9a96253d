package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// cmdServe runs the HTTP verification service (see internal/serve):
// /verify, /mc, /chaos, and /run as jobs with per-request resource caps
// and streaming progress, backed by a persistent proof cache shared
// across requests and restarts. SIGINT/SIGTERM drains gracefully:
// in-flight jobs are cancelled, write their partial responses, and the
// cache is flushed before exit.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8137", "listen address")
	cacheFile := fs.String("cache-file", "fvn-cache.jsonl", "persistent verify-result cache (empty: no cache across requests; each verify caches only within itself)")
	maxConc := fs.Int("max-concurrent", 8, "jobs executing at once")
	queueDepth := fs.Int("queue-depth", 0, "admitted jobs waiting for a slot (0: 2x max-concurrent); beyond it requests get 429")
	defTimeout := fs.Duration("default-timeout", 60*time.Second, "per-job deadline when the request names none")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "upper bound on requested per-job deadlines")
	maxWorkers := fs.Int("max-workers", 0, "per-job worker cap (0: NumCPU)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace period for in-flight jobs")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	}

	srv, err := serve.New(serve.Options{
		CachePath:      *cacheFile,
		MaxConcurrent:  *maxConc,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxWorkers:     *maxWorkers,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stdout, "fvn serve: listening on %s (cache %s)\n", *addr, *cacheFile)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		srv.Shutdown(context.Background())
		return err
	case <-sigCtx.Done():
	}

	// Graceful drain: cancel in-flight jobs (they write partial
	// responses), let the HTTP server finish those writes, then flush
	// and close the cache.
	fmt.Fprintln(stdout, "fvn serve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	serveErr := srv.Shutdown(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && serveErr == nil {
		serveErr = err
	}
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	fmt.Fprintln(stdout, "fvn serve: drained cleanly")
	return nil
}
