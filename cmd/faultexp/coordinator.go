package main

// The coordinator subcommand: the fleet-facing daemon. It is the same
// job manager as serve (internal/fabric), answering the same /v1 job
// routes and /healthz, with the other way to run a job: the grid is
// split into -shard i/m slices, dispatched to worker daemons
// (-workers), and streamed back as the merged interleave —
// byte-identical to a single-node run. It adds GET /v1/workers. Every
// job is durable: its spec and per-shard outputs live under -store, so
// a SIGKILLed coordinator restarts with nothing lost and every
// unfinished job resuming from its exact output prefix.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"strings"
	"time"

	"faultexp/internal/fabric"
	"faultexp/internal/sweep"
)

func cmdCoordinator(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (host:port)")
	workers := fs.String("workers", "", "comma-separated worker addresses (host:port or URLs); health-checked, kernel-version-matched, and fed shards as capacity frees")
	storeDir := fs.String("store", "", "durable job store directory (required): per-job spec + append-only shard outputs, rebuilt on startup so a crash loses nothing")
	maxActive := fs.Int("max-active", 2, "jobs dispatching concurrently; submissions beyond it queue as pending")
	maxInflight := fs.Int("max-inflight", 1, "shards assigned to one worker at a time (fleet backpressure)")
	shards := fs.Int("shards", 0, "shards per job (0 = one per worker); more shards than workers lets slices reassign finer on failure")
	maxResultBytes := fs.Int64("max-result-bytes", 64<<20, "per-job cap on retained in-memory result bytes (0 = unlimited; durable files are never capped)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "worker health-check period; a worker failing its check has its in-flight shards reassigned")
	retryDelay := fs.Duration("retry-delay", 500*time.Millisecond, "pause before reassigning a failed shard attempt")
	quiet := fs.Bool("quiet", false, "suppress the startup line on stderr")
	fs.Parse(args)
	if *storeDir == "" {
		return fmt.Errorf("coordinator: -store DIR is required (the durable job store)")
	}
	if *maxActive < 1 || *maxInflight < 1 {
		return fmt.Errorf("coordinator: -max-active and -max-inflight must be ≥ 1")
	}
	var fleet []string
	for _, tok := range strings.Split(*workers, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			fleet = append(fleet, tok)
		}
	}

	ctx, stop := signalContext(ctx)
	defer stop()

	store, err := fabric.OpenStore(*storeDir)
	if err != nil {
		return err
	}
	co, err := fabric.NewCoordinator(ctx, fabric.CoordinatorConfig{
		Workers:        fleet,
		Store:          store,
		MaxActive:      *maxActive,
		MaxInflight:    *maxInflight,
		Shards:         *shards,
		MaxResultBytes: *maxResultBytes,
		HealthInterval: *healthInterval,
		RetryDelay:     *retryDelay,
	})
	if err != nil {
		return err
	}
	// Shutdown stops dispatching but does NOT cancel jobs: they are
	// durable, and the next start resumes each one from its exact output
	// prefix. Only DELETE cancels durably.
	return serveUntilDone(ctx, *addr, co.Handler(), nil, *quiet, func(addr net.Addr) string {
		return fmt.Sprintf("coordinator: listening on http://%s (%d workers, store %s, kernels %s)",
			addr, len(fleet), *storeDir, sweep.KernelVersion)
	})
}
