// Command paceserve runs the PACE prediction-serving subsystem: an
// HTTP/JSON service answering SWEEP3D performance-model queries
// (/v1/predict), design-space sweeps (/v1/sweep), fault-injection
// idle-wave studies (/v1/perturb) and operational telemetry (/v1/stats,
// /metrics). See README.md beside this file for a quickstart and
// internal/serve for the serving architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"pacesweep/internal/artifact"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
	"pacesweep/internal/serve"
)

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:8080", "listen address")

		platforms = flag.String("platforms", strings.Join(platform.Names(), ","),
			"comma-separated platform names to serve")
		register = flag.String("register", "",
			"comma-separated JSON platform spec files — or directories of *.json spec files — "+
				"to register and serve alongside -platforms")
		artifactDir = flag.String("artifact-dir", "",
			"content-addressed artifact store directory: fitted models, cost kernels and POSTed "+
				"platform registrations persist here and are loaded on restart (empty = fully "+
				"in-memory); traces are compiled, not stored, and a trace/ directory left by an "+
				"older build is never read but counts in bytes_on_disk until removed")
		peers = flag.String("peers", "",
			"comma-separated base URLs of the full serving fleet; enables consistent-hash shard "+
				"routing of /v1/predict and /v1/sweep by platform fingerprint (requires -self-url)")
		selfURL = flag.String("self-url", "",
			"this replica's own base URL as it appears in -peers")
		probeInterval = flag.Duration("probe-interval", 0,
			"period of the active /healthz probes each replica sends its peers, feeding the "+
				"per-peer circuit breakers (0 = 2s default, negative disables active probing)")
		breakerThreshold = flag.Float64("breaker-threshold", 0,
			"failure-rate fraction at which a peer's circuit breaker opens (0 = 0.5 default)")
		proxyTimeout = flag.Duration("proxy-timeout", 0,
			"per-attempt bound on proxying a request to a peer, layered under -request-timeout "+
				"(0 = 3s default, negative disables)")
		seed  = flag.Int64("seed", 1001, "seed for the simulated benchmark-fitting pipeline")
		sched = flag.String("scheduler", pace.SchedulerTrace,
			"mp backend for template evaluation (trace|event; trace compiles each "+
				"configuration shape once and replays it per point, event evaluates live)")

		cacheEntries = flag.Int("cache-entries", 1<<16,
			"response cache capacity in entries (-1 disables the response cache)")
		cacheShards = flag.Int("cache-shards", 16, "response cache shard count")
		memoEntries = flag.Int("memo-entries", 0,
			"per-evaluator prediction-memo capacity (0 = default, -1 = unbounded)")

		maxConcurrent = flag.Int("max-concurrent", 0,
			"max simultaneous model evaluations (0 = 2*GOMAXPROCS)")
		sweepWorkers = flag.Int("sweep-workers", 0,
			"worker pool per sweep request (0 = GOMAXPROCS)")
		maxSweepPoints = flag.Int("max-sweep-points", 4096, "largest accepted sweep expansion")
		maxQueueDepth  = flag.Int("max-queue-depth", 0,
			"shed new evaluation work with 503 + Retry-After once this many requests are queued "+
				"for an evaluation slot (0 = 8*max-concurrent, -1 disables shedding)")
		requestTimeout = flag.Duration("request-timeout", 0,
			"per-request deadline; expired requests answer 504 + Retry-After (0 disables)")

		warmup = flag.Bool("warmup", false,
			"fit every configured platform's evaluator before accepting traffic")
		shutdownGrace = flag.Duration("shutdown-grace", 10*time.Second,
			"how long graceful shutdown waits for inflight requests")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "paceserve: ", log.LstdFlags)

	served := splitNonEmpty(*platforms)
	for _, path := range registerPaths(logger, splitNonEmpty(*register)) {
		spec, err := platform.LoadSpecFile(path)
		if err != nil {
			logger.Fatal(err)
		}
		if err := platform.DefaultRegistry().Register(spec); err != nil {
			logger.Fatalf("%s: %v", path, err)
		}
		served = append(served, spec.Name)
		logger.Printf("registered custom platform %s (%s) from %s", spec.Name, spec.FingerprintHex(), path)
	}

	var store *artifact.Store
	if *artifactDir != "" {
		var err error
		if store, err = artifact.Open(*artifactDir); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("artifact store at %s", *artifactDir)
	}

	cfg := serve.Config{
		Platforms:            served,
		Seed:                 *seed,
		Scheduler:            schedulerOpt(*sched),
		ResponseCacheEntries: *cacheEntries,
		ResponseCacheShards:  *cacheShards,
		MemoEntries:          *memoEntries,
		MaxConcurrent:        *maxConcurrent,
		SweepWorkers:         *sweepWorkers,
		MaxSweepPoints:       *maxSweepPoints,
		MaxQueueDepth:        *maxQueueDepth,
		RequestTimeout:       *requestTimeout,
		ArtifactStore:        store,
		Peers:                splitNonEmpty(*peers),
		SelfURL:              *selfURL,
		ProbeInterval:        *probeInterval,
		BreakerThreshold:     *breakerThreshold,
		ProxyTimeout:         *proxyTimeout,
		Logf: func(format string, args ...any) {
			logger.Printf(strings.TrimPrefix(format, "paceserve: "), args...)
		},
	}
	srv, err := serve.New(cfg)
	if err != nil {
		logger.Fatal(err)
	}
	defer srv.Close() // stops the peer probe loop
	if *warmup {
		for _, name := range cfg.Platforms {
			if err := srv.Warm(name); err != nil {
				logger.Fatalf("warmup %s: %v", name, err)
			}
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Printf("serving %v on http://%s (scheduler=%s)", cfg.Platforms, *addr, orDefault(cfg.Scheduler, pace.SchedulerTrace))

	select {
	case err := <-errc:
		logger.Fatal(err)
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining for up to %s", *shutdownGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Printf("forced shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	logger.Printf("bye")
}

// registerPaths expands -register entries: a directory means every *.json
// file inside it (a registration fleet's spec drop directory), sorted for
// deterministic registration order; anything else passes through as a
// file path. A directory with no specs is fatal — a misspelt path must
// not silently register nothing.
func registerPaths(logger *log.Logger, entries []string) []string {
	var out []string
	for _, entry := range entries {
		info, err := os.Stat(entry)
		if err != nil {
			logger.Fatal(err)
		}
		if !info.IsDir() {
			out = append(out, entry)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(entry, "*.json"))
		if err != nil {
			logger.Fatal(err)
		}
		if len(matches) == 0 {
			logger.Fatalf("-register directory %s holds no *.json spec files", entry)
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	return out
}

// schedulerOpt maps the flag onto the serve config convention (empty =
// the default trace tier).
func schedulerOpt(s string) string {
	if s == pace.SchedulerTrace {
		return ""
	}
	return s
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
