// Command dnaload is the open-loop capacity and conservation harness for
// dnasimd. It fires job arrivals at a configured rate — independent of
// completions, the way real traffic arrives — through the resilient
// client (internal/client) and, with -chaos, through the chaosnet fault
// proxy, then closes the books:
//
//   - every arrival must reach exactly one terminal outcome;
//   - the server's submitted counter must equal the number of distinct
//     job IDs the clients hold (no duplicated work from retried
//     submits, no lost work from dropped ones);
//   - the server's finished counters must sum to its submitted counter;
//   - re-polled results must be byte-identical to the first fetch.
//
// The traffic mix is deterministic in -seed: small and huge specs,
// deliberate duplicate submissions of earlier specs, and mid-flight
// cancels. The run prints its outcome ledger, latency percentiles and
// capacity, and exits 1 when any job was lost, duplicated or corrupted,
// or when no run succeeded; `make loadcheck` runs the single-node chaos
// drill and the fleet drill. Paired timing across commits is bench/'s job.
//
// Usage:
//
//	dnaload -rps 60 -jobs 90 -chaos           # self-contained drill
//	dnaload -target http://host:8080 -rps 200 # drive an external server
//	dnaload -fleet-nodes 3 -rps 40 -jobs 60   # drive an in-process 3-node fleet
//
// With -fleet-nodes the harness stands up N in-process worker servers plus
// a crash-consistent fleet coordinator (ledger + spill on a temp dir) and
// drives the coordinator instead — same arrivals, same conservation check.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"dnastore/internal/chaosnet"
	"dnastore/internal/client"
	"dnastore/internal/fleet"
	"dnastore/internal/rng"
	"dnastore/internal/server"
)

func main() {
	var (
		rps        = flag.Float64("rps", 60, "open-loop arrival rate (jobs/second)")
		jobs       = flag.Int("jobs", 90, "total arrivals to fire")
		seed       = flag.Uint64("seed", 1, "seed for the traffic mix and chaos schedule")
		target     = flag.String("target", "", "drive an external dnasimd base URL instead of an in-process server")
		fleetNodes = flag.Int("fleet-nodes", 0, "drive an in-process fleet coordinator over this many worker nodes instead of a single server (0 disables)")
		chaos      = flag.Bool("chaos", false, "route traffic through the chaosnet fault proxy")
		bhPeriod   = flag.Duration("blackhole-period", 2*time.Second, "with -chaos: blackhole window period")
		bhFor      = flag.Duration("blackhole-for", 400*time.Millisecond, "with -chaos: blackhole window length")
		hugeFrac   = flag.Float64("huge-frac", 0.10, "fraction of arrivals carrying huge specs")
		dupFrac    = flag.Float64("dup-frac", 0.15, "fraction of arrivals duplicating an earlier spec")
		cancelFrac = flag.Float64("cancel-frac", 0.10, "fraction of arrivals canceled mid-flight")
		workers    = flag.Int("workers", 4, "in-process server worker count")
		queueCap   = flag.Int("queue", 256, "in-process server queue capacity")
		callTO     = flag.Duration("call-timeout", 500*time.Millisecond, "client per-call timeout")
		runTO      = flag.Duration("run-timeout", 60*time.Second, "per-job end-to-end budget")
		verbose    = flag.Bool("v", false, "per-run outcome lines")
	)
	flag.Parse()
	// Out of range, these would panic (-jobs -1), fire nothing (-jobs 0),
	// fire every arrival at once (-rps 0) or hand a server a value it
	// silently replaces, so they are refused before any server starts.
	inFrac := func(f float64) bool { return f >= 0 && f <= 1 }
	for _, f := range []struct {
		name string
		bad  bool
		want string
	}{
		{"rps", !(*rps > 0) || math.IsInf(*rps, 1), "must be finite and positive"},
		{"jobs", *jobs < 1, "must be positive"},
		{"fleet-nodes", *fleetNodes < 0, "must not be negative"},
		{"huge-frac", !inFrac(*hugeFrac), "must be in [0, 1]"},
		{"dup-frac", !inFrac(*dupFrac), "must be in [0, 1]"},
		{"cancel-frac", !inFrac(*cancelFrac), "must be in [0, 1]"},
		{"workers", *workers < 0, "must not be negative"},
		{"queue", *queueCap < 1, "must be positive"},
		{"call-timeout", *callTO <= 0, "must be positive"},
		{"run-timeout", *runTO <= 0, "must be positive"},
	} {
		if f.bad {
			fmt.Fprintf(os.Stderr, "dnaload: -%s %s, got %s\n", f.name, f.want, flag.Lookup(f.name).Value)
			os.Exit(2)
		}
	}

	cfg := loadConfig{
		RPS: *rps, Jobs: *jobs, Seed: *seed, Chaos: *chaos,
		HugeFrac: *hugeFrac, DupFrac: *dupFrac, CancelFrac: *cancelFrac,
		FleetNodes: *fleetNodes,
	}

	// Wire the target: an in-process server by default (its registry is
	// the conservation ground truth), an in-process fleet coordinator with
	// -fleet-nodes, or an external base URL whose /metrics endpoint is
	// scraped over HTTP.
	baseURL := *target
	var metrics metricsSource
	switch {
	case *target != "":
		metrics = scrapeMetrics(*target + "/metrics")
	case *fleetNodes > 0:
		if *chaos {
			fail(fmt.Errorf("-chaos is not supported with -fleet-nodes; chaosnet drills the single-node transport"))
		}
		var nodeCfgs []fleet.NodeConfig
		for i := 0; i < *fleetNodes; i++ {
			wsrv := server.New(server.Config{
				QueueCapacity: *queueCap,
				Workers:       *workers,
			})
			wln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fail(err)
			}
			whs := &http.Server{Handler: wsrv}
			go whs.Serve(wln)
			defer whs.Close()
			nodeCfgs = append(nodeCfgs, fleet.NodeConfig{
				Name: fmt.Sprintf("w%d", i+1), BaseURL: "http://" + wln.Addr().String(),
			})
		}
		fleetDir, err := os.MkdirTemp("", "dnaload-fleet")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(fleetDir)
		coord, err := fleet.New(fleet.Config{
			Nodes: nodeCfgs,
			// Coarse shards under load: the ledger fsyncs per job, not per
			// shard, but placement and polling are per shard — 1000-cluster
			// shards keep a huge spec to a handful of worker round-trips.
			ShardClusters: 1000,
			DataDir:       fleetDir,
			Client:        client.Config{PollInterval: 10 * time.Millisecond, Seed: *seed},
		})
		if err != nil {
			fail(err)
		}
		defer coord.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		hs := &http.Server{Handler: coord}
		go hs.Serve(ln)
		defer hs.Close()
		baseURL = "http://" + ln.Addr().String()
		metrics = func() (map[string]float64, error) { return coord.Registry().Snapshot(), nil }
	default:
		srv := server.New(server.Config{
			QueueCapacity: *queueCap,
			Workers:       *workers,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		baseURL = "http://" + ln.Addr().String()
		metrics = func() (map[string]float64, error) { return srv.Registry().Snapshot(), nil }
	}

	var proxy *chaosnet.Proxy
	if *chaos {
		sc := chaosnet.Default()
		sc.BlackholePeriod = *bhPeriod
		sc.BlackholeFor = *bhFor
		p, err := chaosnet.Listen(hostPort(baseURL), sc, *seed)
		if err != nil {
			fail(err)
		}
		defer p.Close()
		proxy = p
		baseURL = p.URL()
	}

	c := client.New(client.Config{
		BaseURL:        baseURL,
		HTTPClient:     &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		MaxAttempts:    40,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     150 * time.Millisecond,
		PerCallTimeout: *callTO,
		PollInterval:   20 * time.Millisecond,
		Seed:           *seed,
	})

	rep, err := drive(c, metrics, proxy, cfg, *runTO, *verbose)
	if err != nil {
		fail(err)
	}
	fmt.Print(rep.Render())
	if err := rep.check(); err != nil {
		fail(err)
	}
}

// arrival is one planned job: its flavor and which spec it carries.
// Duplicates reuse an earlier arrival's specIdx, so both runs carry a
// byte-identical spec and must land on the same server-side job.
type arrival struct {
	flavor  string // "plain" | "dup" | "cancel"
	specIdx int
}

// splitmix64 derives independent per-arrival seeds.
func splitmix64(x uint64) uint64 { return rng.Mix64(x + 0x9e3779b97f4a7c15) }

// planArrival decides arrival i's flavor deterministically from the seed.
func planArrival(i int, cfg loadConfig) arrival {
	r := rand.New(rand.NewSource(int64(splitmix64(cfg.Seed ^ uint64(i)<<17))))
	a := arrival{flavor: "plain", specIdx: i}
	switch f := r.Float64(); {
	case i > 0 && f < cfg.DupFrac:
		a.flavor = "dup"
		a.specIdx = r.Intn(i)
	case f < cfg.DupFrac+cfg.CancelFrac:
		a.flavor = "cancel"
	}
	return a
}

// specFor builds the (pure function of seed and index) spec an arrival
// carries: mostly small four-cluster drills, a fraction of huge specs
// that hold workers for much longer.
func specFor(idx int, cfg loadConfig, forceHuge bool) server.JobSpec {
	r := rand.New(rand.NewSource(int64(splitmix64(cfg.Seed*31 + uint64(idx)))))
	sim := &server.SimulateSpec{
		NumRefs: 4, RefLen: 30, Coverage: 2,
		Seed: cfg.Seed*1_000_000 + uint64(idx),
		Sub:  0.01, Ins: 0.005, Del: 0.02,
	}
	// Huge = tens of milliseconds of simulation (the hot path clears
	// ~140k clusters/s), long enough to hold a worker, overlap other
	// arrivals, and give mid-flight cancels a real race to win.
	if forceHuge || r.Float64() < cfg.HugeFrac {
		sim.NumRefs, sim.RefLen, sim.Coverage = 8000, 120, 5
	}
	return server.JobSpec{Kind: server.KindSimulate, Simulate: sim}
}

// specForArrival is the spec arrival j carries. Cancel-flavored arrivals
// always get huge specs: a cancel aimed at a sub-millisecond job loses
// the race every time and exercises nothing. Duplicate arrivals recompute
// their original's plan — recursively, since the original may itself be a
// duplicate — so every link of a dup chain derives a byte-identical spec.
func specForArrival(j int, cfg loadConfig) server.JobSpec {
	a := planArrival(j, cfg)
	if a.flavor == "dup" {
		return specForArrival(a.specIdx, cfg) // specIdx < j: terminates
	}
	return specFor(j, cfg, a.flavor == "cancel")
}

// runRecord is one arrival's ledger entry.
type runRecord struct {
	arrival  arrival
	res      client.RunResult
	latency  time.Duration
	clusters int
}

// drive fires the open-loop schedule and reconciles the books.
func drive(c *client.Client, metrics metricsSource, proxy *chaosnet.Proxy, cfg loadConfig, runTO time.Duration, verbose bool) (*loadReport, error) {
	before, err := metrics()
	if err != nil {
		return nil, fmt.Errorf("pre-drive metrics scrape: %w", err)
	}

	interval := time.Duration(float64(time.Second) / cfg.RPS)
	records := make([]runRecord, cfg.Jobs)
	var wg sync.WaitGroup
	start := time.Now()

	for i := 0; i < cfg.Jobs; i++ {
		// Open loop: the next arrival fires on schedule whether or not
		// earlier jobs finished — backpressure shows up as shed rate and
		// latency, never as a slower offered load.
		if sleep := start.Add(time.Duration(i) * interval).Sub(time.Now()); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			records[i] = fireArrival(c, i, cfg, runTO, verbose)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := settle(metrics, 15*time.Second)
	if err != nil {
		return nil, err
	}
	rep := reconcile(records, before, after, cfg, elapsed)
	if proxy != nil {
		rep.ChaosStats = proxy.Stats().String()
	}
	return rep, nil
}

// fireArrival runs one arrival to its terminal outcome.
func fireArrival(c *client.Client, i int, cfg loadConfig, runTO time.Duration, verbose bool) runRecord {
	a := planArrival(i, cfg)
	spec := specForArrival(i, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), runTO)
	defer cancel()
	r := rand.New(rand.NewSource(int64(splitmix64(cfg.Seed ^ uint64(i)*0x9e37))))

	if a.flavor == "cancel" {
		// Submit first to learn the job ID, schedule the mid-flight
		// cancel, then Run: its idempotent resubmit replays the same job
		// and polls it to whichever terminal state wins the race.
		if st, _, err := c.Submit(ctx, spec); err == nil {
			// Mostly-immediate cancels: a canceled-while-queued job is a
			// deterministic win, a canceled-while-running one a real race,
			// and a cancel that loses to completion a benign no-op — the
			// mix exercises all three.
			delay := time.Duration(r.Intn(10)) * time.Millisecond
			go func() {
				time.Sleep(delay)
				cctx, ccancel := context.WithTimeout(context.Background(), runTO)
				defer ccancel()
				c.Cancel(cctx, st.ID) //nolint:errcheck — canceling a finished job is a benign race
			}()
		}
	}

	t0 := time.Now()
	res := c.Run(ctx, spec)
	rec := runRecord{arrival: a, res: res, latency: time.Since(t0), clusters: spec.Simulate.NumRefs}

	// Re-poll a fraction of successful results: the second fetch must be
	// byte-identical to the first, or something corrupted a payload
	// without either fetch noticing.
	if res.Outcome == client.OutcomeSucceeded && r.Float64() < 0.25 {
		if data, err := c.Result(ctx, res.JobID); err == nil && !bytes.Equal(data, res.Data) {
			rec.res.Outcome = "corrupted"
		}
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "dnaload: run %3d %-6s spec=%d outcome=%s submits=%d replays=%d in %v\n",
			i, a.flavor, a.specIdx, rec.res.Outcome, res.Submits, res.Replays, rec.latency.Round(time.Millisecond))
	}
	return rec
}

// settle polls the metrics source until the server's ledger closes: no
// queued or running jobs, and every admitted job counted terminal.
func settle(metrics metricsSource, timeout time.Duration) (map[string]float64, error) {
	var snap map[string]float64
	deadline := time.Now().Add(timeout)
	for {
		var err error
		snap, err = metrics()
		if err == nil &&
			snap["dnasimd_queue_depth"] == 0 &&
			snap["dnasimd_jobs_running"] == 0 &&
			finishedSum(snap) == snap["dnasimd_jobs_submitted_total"] {
			return snap, nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return nil, fmt.Errorf("metrics scrape: %w", err)
			}
			return snap, fmt.Errorf("server never settled: queue=%.0f running=%.0f finished=%.0f submitted=%.0f",
				snap["dnasimd_queue_depth"], snap["dnasimd_jobs_running"],
				finishedSum(snap), snap["dnasimd_jobs_submitted_total"])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func hostPort(baseURL string) string {
	const scheme = "http://"
	if len(baseURL) > len(scheme) && baseURL[:len(scheme)] == scheme {
		return baseURL[len(scheme):]
	}
	return baseURL
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dnaload:", err)
	os.Exit(1)
}

// percentile returns the p-th percentile (0..100) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// sortedLatencies collects terminal-run latencies in ascending order.
func sortedLatencies(records []runRecord) []time.Duration {
	lats := make([]time.Duration, 0, len(records))
	for _, r := range records {
		lats = append(lats, r.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats
}
