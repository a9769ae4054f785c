package main

// The serve and worker subcommands, plus the listen/serve/shutdown
// loop every daemon shares. internal/fabric has one job manager and two
// ways to run a job: serve and worker run each job as one local sweep
// (fabric.Server), the coordinator (coordinator.go) as shards on a
// worker fleet. `serve` is the standalone service clients talk to
// directly; `worker` is the same surface enrolled in a fleet, driven by
// `faultexp coordinator` through the ?shard=i/m&skip=K query parameters
// on POST /v1/jobs. All three daemons answer the same endpoints:
//
//	POST   /v1/jobs               spec JSON → job id (queued into a bounded pool)
//	GET    /v1/jobs               all jobs with snapshots
//	GET    /v1/jobs/{id}          one job's snapshot
//	GET    /v1/jobs/{id}/results  streamed JSONL (?from=K skips the first K cells,
//	                              so a dropped client resumes where it left off)
//	DELETE /v1/jobs/{id}          graceful cancel (drains at a cell boundary)
//	GET    /healthz               build version, kernel-version stamp, capacity
//
// The results stream is byte-identical to `faultexp sweep -jsonl` for
// the same spec: both paths encode the same Result structs with the
// same json.Marshal. Determinism makes the service idempotent — a
// client that loses a stream re-requests with ?from= and the bytes
// line up exactly.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"faultexp/internal/cache"
	"faultexp/internal/fabric"
	"faultexp/internal/sweep"
)

func cmdServe(ctx context.Context, args []string) error {
	return runJobDaemon(ctx, "serve", "127.0.0.1:8080", args)
}

func cmdWorker(ctx context.Context, args []string) error {
	return runJobDaemon(ctx, "worker", "127.0.0.1:8081", args)
}

// runJobDaemon is the shared serve/worker implementation; only the
// flag-set name, default port, and startup line differ.
func runJobDaemon(ctx context.Context, name, defaultAddr string, args []string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	addr := fs.String("addr", defaultAddr, "listen address (host:port)")
	maxActive := fs.Int("max-active", 2, "jobs executing concurrently; submissions beyond it queue as pending")
	maxJobs := fs.Int("max-jobs", 64, "jobs held in memory; when full, finished jobs are evicted oldest-first and POST returns 503 only if every held job is still active")
	maxResultBytes := fs.Int64("max-result-bytes", 64<<20, "per-job cap on retained result bytes; a job whose output would exceed it fails with a clear error (0 = unlimited)")
	cacheDir := fs.String("cache", "", "content-addressed result cache directory shared by every job: overlapping grids recompute nothing, and identical cells wanted by concurrent jobs are computed once (single-flight)")
	quiet := fs.Bool("quiet", false, "suppress the startup line on stderr")
	fs.Parse(args)
	if *maxActive < 1 || *maxJobs < 1 {
		return fmt.Errorf("%s: -max-active and -max-jobs must be ≥ 1", name)
	}
	if *maxResultBytes < 0 {
		return fmt.Errorf("%s: -max-result-bytes must be ≥ 0 (0 = unlimited)", name)
	}

	ctx, stop := signalContext(ctx)
	defer stop()

	cfg := fabric.Config{MaxActive: *maxActive, MaxJobs: *maxJobs, MaxResultBytes: *maxResultBytes}
	if *cacheDir != "" {
		rc, err := cache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache, cfg.Flight = rc, cache.NewFlight()
	}
	mgr := fabric.NewServer(ctx, cfg)
	// Shutdown cancels every job; each drains at a cell boundary.
	return serveUntilDone(ctx, *addr, mgr.Handler(), mgr.CancelAll, *quiet, func(addr net.Addr) string {
		return fmt.Sprintf("%s: listening on http://%s (POST /v1/jobs, %d concurrent jobs, kernels %s)",
			name, addr, *maxActive, sweep.KernelVersion)
	})
}

// serveUntilDone listens on addr, prints the startup banner for the
// bound address to stderr unless quiet, and serves h until ctx ends.
// Then it runs onStop (when non-nil) and gives in-flight responses up
// to 15s to finish streaming their final records before the listener
// closes for good.
func serveUntilDone(ctx context.Context, addr string, h http.Handler, onStop func(), quiet bool, banner func(net.Addr) string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintln(os.Stderr, banner(ln.Addr()))
	}
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		if onStop != nil {
			onStop()
		}
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		return srv.Shutdown(shCtx)
	}
}
