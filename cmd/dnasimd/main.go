// Command dnasimd is the resident simulation service: an HTTP job server
// that accepts simulation and retrieval jobs, executes them on a
// supervised worker pool, and survives overload, stalls, I/O faults and
// shutdown signals without losing admitted work.
//
//	dnasimd -addr :8080 -data /var/lib/dnasimd
//
// Submit a job and poll it:
//
//	curl -s localhost:8080/v1/jobs -d '{"kind":"simulate","simulate":{"num_refs":100,"ref_len":110,"seed":7,"sub":0.01,"ins":0.005,"del":0.02,"coverage":8}}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/v1/jobs/j000001/result -o sim.txt
//
// SIGTERM (or SIGINT) drains gracefully: admission stops, in-flight jobs
// finish or checkpoint their progress to the durable journal in -data,
// and the process exits 0. Resubmitting an identical simulation spec
// against the same -data dir resumes from the journal, byte-identically.
//
// With -coordinator the same binary fronts a fleet of worker instances
// instead of simulating locally: simulate jobs are split into cluster-range
// shards, placed by rendezvous hashing, cached by shard fingerprint, and
// merged byte-identically to a single-node run. The API is unchanged, so
// clients need not know whether they talk to a worker or a fleet:
//
//	dnasimd -addr :8081 -data /shared/dnasimd   # worker 1
//	dnasimd -addr :8082 -data /shared/dnasimd   # worker 2
//	dnasimd -addr :8080 -coordinator -nodes 'w1=http://localhost:8081,w2=http://localhost:8082' \
//	        -data-dir /var/lib/dnasimd-coord
//
// With -data-dir the coordinator itself is crash-consistent: every accepted
// job is journaled to a write-ahead ledger before the 202, completed shard
// results spill to durable containers (bounded by -cache-bytes), and a
// restart replays the ledger — re-adopting in-flight jobs under their old
// IDs and Idempotency-Keys — before serving.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dnastore/internal/fleet"
	"dnastore/internal/obs"
	"dnastore/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataDir     = flag.String("data", "", "data directory for checkpoint journals (empty disables checkpointing)")
		queueCap    = flag.Int("queue", 64, "admission queue capacity; beyond it submissions are shed with 503 + Retry-After")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		maxAttempts = flag.Int("max-attempts", 3, "supervised execution attempts per job")
		stallAfter  = flag.Duration("stall-after", 30*time.Second, "kill a job attempt after this long without cluster progress (negative disables)")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "how long drain waits for non-checkpointable jobs")
		jobTimeout  = flag.Duration("job-timeout", 0, "default per-job deadline for jobs that set none (0 = unbounded)")
		brkFails    = flag.Int("breaker-failures", 5, "consecutive I/O failures that trip the circuit breaker")
		brkCooldown = flag.Duration("breaker-cooldown", 10*time.Second, "open-breaker cooldown before a half-open probe")
		pprof       = flag.Bool("pprof", false, "mount /debug/pprof/* profiling endpoints (off by default: they expose internals)")

		coordinator   = flag.Bool("coordinator", false, "front a fleet of workers (-nodes) instead of simulating locally")
		nodes         = flag.String("nodes", "", "coordinator: comma-separated name=url worker list")
		shardClusters = flag.Int("shard-clusters", 64, "coordinator: clusters per shard")
		hedgeAfter    = flag.Duration("hedge-after", 0, "coordinator: hedge a straggling shard on the next-ranked node after this long (0 disables)")
		allowPartial  = flag.Bool("allow-partial", false, "coordinator: deliver a partial dataset with explicit erasure shards instead of failing when placements are exhausted")
		maxShardAtt   = flag.Int("max-shard-attempts", 0, "coordinator: placements per shard before it counts as lost (0 = 2x node count)")
		probeInterval = flag.Duration("probe-interval", time.Second, "coordinator: /readyz health-probe cadence (negative disables)")
		cacheEntries  = flag.Int("cache-entries", 256, "coordinator: shard result cache capacity")
		coordDataDir  = flag.String("data-dir", "", "coordinator: data directory for the write-ahead job ledger and shard spill cache (empty disables crash recovery)")
		cacheBytes    = flag.Int64("cache-bytes", 256<<20, "coordinator: byte budget for the durable shard spill cache under -data-dir")

		logOpts = obs.LogFlags(flag.CommandLine)
	)
	flag.Parse()
	// The service would replace each of these out-of-range values with its
	// default (or, for a negative timeout, with none) and run on without a
	// word, so a typo is refused before the listener binds.
	for _, f := range []struct {
		name string
		bad  bool
		want string
	}{
		{"queue", *queueCap < 1, "must be positive"},
		{"workers", *workers < 0, "must not be negative"},
		{"max-attempts", *maxAttempts < 1, "must be positive"},
		{"stall-after", *stallAfter == 0, "must not be 0 (negative disables)"},
		{"drain-grace", *drainGrace <= 0, "must be positive"},
		{"job-timeout", *jobTimeout < 0, "must not be negative"},
		{"breaker-failures", *brkFails < 1, "must be positive"},
		{"breaker-cooldown", *brkCooldown <= 0, "must be positive"},
		{"shard-clusters", *shardClusters < 1, "must be positive"},
		{"hedge-after", *hedgeAfter < 0, "must not be negative"},
		{"max-shard-attempts", *maxShardAtt < 0, "must not be negative"},
		{"probe-interval", *probeInterval == 0, "must not be 0 (negative disables)"},
		{"cache-entries", *cacheEntries < 1, "must be positive"},
		{"cache-bytes", *cacheBytes < 1, "must be positive"},
	} {
		if f.bad {
			fmt.Fprintf(os.Stderr, "dnasimd: -%s %s, got %s\n", f.name, f.want, flag.Lookup(f.name).Value)
			os.Exit(2)
		}
	}

	logger := log.New(os.Stderr, "dnasimd: ", log.LstdFlags)
	slogger := logOpts.Logger("dnasimd")

	// Both modes serve the same jobs front-end; they differ only in the
	// executor behind it.
	var svc interface {
		http.Handler
		Drain()
	}
	var banner string
	if *coordinator {
		nodeList, err := parseNodes(*nodes)
		if err != nil {
			log.Fatalf("dnasimd: %v", err)
		}
		coord, err := fleet.New(fleet.Config{
			Nodes:            nodeList,
			ShardClusters:    *shardClusters,
			MaxShardAttempts: *maxShardAtt,
			HedgeAfter:       *hedgeAfter,
			AllowPartial:     *allowPartial,
			CacheCapacity:    *cacheEntries,
			DataDir:          *coordDataDir,
			SpillBytes:       *cacheBytes,
			ProbeInterval:    *probeInterval,
			DrainGrace:       *drainGrace,
			BreakerThreshold: *brkFails,
			BreakerCooldown:  *brkCooldown,
			Logger:           slogger,
		})
		if err != nil {
			log.Fatalf("dnasimd: %v", err)
		}
		names := make([]string, len(nodeList))
		for i, n := range nodeList {
			names[i] = n.Name
		}
		svc = coord
		banner = fmt.Sprintf("coordinating %d node(s) [%s] on %s (shard=%d clusters, hedge=%s, partial=%v)",
			len(nodeList), strings.Join(names, " "), *addr, *shardClusters, *hedgeAfter, *allowPartial)
	} else {
		if *dataDir != "" {
			if err := os.MkdirAll(*dataDir, 0o755); err != nil {
				log.Fatalf("dnasimd: data dir: %v", err)
			}
		}
		svc = server.New(server.Config{
			QueueCapacity:     *queueCap,
			Workers:           *workers,
			DataDir:           *dataDir,
			MaxAttempts:       *maxAttempts,
			StallAfter:        *stallAfter,
			DrainGrace:        *drainGrace,
			DefaultJobTimeout: *jobTimeout,
			BreakerThreshold:  *brkFails,
			BreakerCooldown:   *brkCooldown,
			Logger:            slogger,
		})
		banner = fmt.Sprintf("listening on %s (queue=%d workers=%d data=%q)", *addr, *queueCap, *workers, *dataDir)
	}

	// The service handles everything (including /metrics); pprof, when
	// enabled, mounts on an outer mux so the server package never links
	// net/http/pprof into embedders that don't want it.
	handler := http.Handler(svc)
	if *pprof {
		outer := http.NewServeMux()
		obs.RegisterPprof(outer)
		outer.Handle("/", svc)
		handler = outer
		slogger.Info("pprof endpoints enabled", "path", "/debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		logger.Print(banner)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigCh:
		logger.Printf("%s: draining", sig)
		// Drain first — admission stops, /readyz flips, in-flight jobs
		// finish, checkpoint, or (coordinator) park in their ledgers for a
		// restart on the same -data-dir — and only then close the
		// listener, so status and result queries keep working throughout.
		svc.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
		logger.Printf("drained; exiting")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "dnasimd:", err)
			os.Exit(1)
		}
	}
}

// parseNodes parses the -nodes flag: "name=url[,name=url...]".
func parseNodes(s string) ([]fleet.NodeConfig, error) {
	if s == "" {
		return nil, errors.New("coordinator mode needs -nodes name=url[,name=url...]")
	}
	var out []fleet.NodeConfig
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -nodes entry %q, want name=url", part)
		}
		out = append(out, fleet.NodeConfig{Name: name, BaseURL: url})
	}
	return out, nil
}
