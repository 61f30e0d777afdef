package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/client"
	"dnastore/internal/fleet"
	"dnastore/internal/rng"
	"dnastore/internal/server"
)

// target is the system an open-loop run drives: one dnasimd server, or a
// fleet coordinator over worker servers.
type target struct {
	url     string
	servers []*server.Server
	coord   *fleet.Coordinator
	workers int // worker goroutines across the servers
	closers []func()
}

func (t *target) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// serveHTTP serves h on a loopback port until the returned stop is called.
func serveHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck — returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// startTarget starts the servers (and coordinator) the workload drives.
// The single server mirrors the dnasimd defaults: no data dir.
func startTarget(p openParams, dir string) (*target, error) {
	t := &target{}
	newServer := func() (string, error) {
		srv := server.New(server.Config{Workers: p.Workers, QueueCapacity: p.QueueCapacity})
		url, stop, err := serveHTTP(srv)
		if err != nil {
			srv.Drain()
			return "", err
		}
		t.servers = append(t.servers, srv)
		t.workers += p.Workers
		t.closers = append(t.closers, srv.Drain, stop)
		return url, nil
	}
	if p.Nodes == 0 {
		url, err := newServer()
		t.url = url
		return t, err
	}
	var nodes []fleet.NodeConfig
	for i := 0; i < p.Nodes; i++ {
		url, err := newServer()
		if err != nil {
			t.close()
			return nil, err
		}
		nodes = append(nodes, fleet.NodeConfig{Name: fmt.Sprintf("w%d", i+1), BaseURL: url})
	}
	coord, err := fleet.New(fleet.Config{
		Nodes:         nodes,
		ShardClusters: p.ShardClusters,
		DataDir:       dir,
		// The node client keeps dnasimd's default transport, which holds
		// at most 2 idle keep-alive connections per node.
		Client: client.Config{
			PollInterval: time.Duration(p.NodePollMS) * time.Millisecond,
			Seed:         scheduleSeed,
		},
	})
	if err != nil {
		t.close()
		return nil, err
	}
	url, stop, err := serveHTTP(coord)
	if err != nil {
		coord.Drain()
		t.close()
		return nil, err
	}
	t.coord, t.url = coord, url
	t.closers = append(t.closers, coord.Drain, stop)
	return t, nil
}

// snapshot reads every registry of the target: the coordinator's under
// "coord", the servers' summed under "node".
func (t *target) snapshot() map[string]map[string]float64 {
	out := map[string]map[string]float64{"node": {}}
	for _, s := range t.servers {
		for k, v := range s.Registry().Snapshot() {
			out["node"][k] += v
		}
	}
	if t.coord != nil {
		out["coord"] = t.coord.Registry().Snapshot()
	}
	return out
}

// settled reports whether a registry shows no queued or running job and
// every admitted job finished.
func settled(snap map[string]float64) bool {
	finished := 0.0
	for k, v := range snap {
		if strings.HasPrefix(k, "dnasimd_jobs_finished_total{") {
			finished += v
		}
	}
	return snap["dnasimd_queue_depth"] == 0 && snap["dnasimd_jobs_running"] == 0 &&
		finished == snap["dnasimd_jobs_submitted_total"]
}

func runServe(ctx context.Context, e *env) (*outcome, error) {
	return runOpen(ctx, e, e.def.Serve, "serve")
}

func runFleet(ctx context.Context, e *env) (*outcome, error) {
	return runOpen(ctx, e, e.def.Fleet, "fleet")
}

// segmentRequest is one segment of an open-loop run: a target set up
// Repeats times in a process of its own, then driven with arrivals
// [First, First+Count) of the run's plan of Total arrivals.
type segmentRequest struct {
	Workload string     `json:"workload"`
	Def      definition `json:"definition"`
	Seed     uint64     `json:"seed"`
	Total    int        `json:"total"`
	First    int        `json:"first"`
	Count    int        `json:"count"`
	Repeats  int        `json:"setup_repeats"`
	Traced   bool       `json:"traced"`
	Workdir  string     `json:"workdir"`
}

// segment is what one segment measured.
type segment struct {
	SetupS  []float64 `json:"setup_s"`
	RSSMB   []float64 `json:"rss_mb"`
	Workers int       `json:"workers"`
	WallS   float64   `json:"wall_s"`
	// Delta holds the registry deltas over the driven phase: the servers'
	// summed under "node", the coordinator's under "coord".
	Delta map[string]map[string]float64 `json:"delta"`
	Drive *loadResult                   `json:"drive"`
}

func (r *segmentRequest) params() openParams {
	if r.Workload == "fleet" {
		return r.Def.Fleet
	}
	return r.Def.Serve
}

// measure sets up the target, has the load generator fire the segment's
// arrivals at it on a fixed schedule, and waits for its registries to
// settle.
func (r *segmentRequest) measure(ctx context.Context) (*segment, error) {
	p := r.params()
	poll := time.Duration(p.PollMS) * time.Millisecond
	setups := 0
	setup := func() (*target, func(), error) {
		setups++
		dir := filepath.Join(r.Workdir, fmt.Sprintf("%s-%d", r.Workload, setups))
		t, err := startTarget(p, dir)
		if err != nil {
			return nil, nil, err
		}
		teardown := func() { t.close(); os.RemoveAll(dir) }
		// One untimed block of the pattern, sent one job at a time with
		// seeds no arrival uses, pays first-use costs before the schedule
		// starts.
		cli := client.New(client.Config{BaseURL: t.url, HTTPClient: &http.Client{Transport: newTransport(r.Def.MaxConns)}, Seed: r.Seed})
		warm, _ := planArrivals(p, subSeed(r.Seed, uint64(3<<32+setups)), len(p.Pattern), 1)
		rg := rng.New(subSeed(r.Seed, uint64(4<<32+setups)))
		for _, a := range warm {
			if res := fire(ctx, cli, nil, 0, a, time.Now(), poll, rg); res.Err != "" {
				teardown()
				return nil, nil, fmt.Errorf("warm-up %s job: %s", a.class, res.Err)
			}
		}
		return t, teardown, nil
	}
	t, setupS, teardown, err := setupRepeated(r.Repeats, setup)
	if err != nil {
		return nil, err
	}
	defer teardown()

	before := t.snapshot()
	meter := startMeter()
	var d loadResult
	err = runChild(ctx, r.Workdir, "drive", childRequest{Drive: &loadRequest{
		URL: t.url, Params: p, Seed: r.Seed, Total: r.Total, First: r.First, Count: r.Count,
		MaxConns: r.Def.MaxConns, GOMAXPROCS: r.Def.GOMAXPROCS, Traced: r.Traced,
	}}, &d)
	rss := meter.finish()
	if err != nil {
		return nil, err
	}
	var after map[string]map[string]float64
	for deadline := time.Now().Add(time.Duration(r.Def.SettleSeconds) * time.Second); ; time.Sleep(20 * time.Millisecond) {
		after = t.snapshot()
		if settled(after["node"]) && (t.coord == nil || settled(after["coord"])) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("run rejected: registries did not settle within %ds", r.Def.SettleSeconds)
		}
	}
	delta := map[string]map[string]float64{}
	for reg, m := range after {
		delta[reg] = map[string]float64{}
		for k, v := range m {
			delta[reg][k] = v - before[reg][k]
		}
	}
	return &segment{
		SetupS: setupS, RSSMB: rss, Workers: t.workers,
		WallS: time.Since(time.Unix(0, d.StartUnixNano)).Seconds(), Delta: delta, Drive: &d,
	}, nil
}

// runOpen fires Rate × seconds arrivals in Segments segments, each served
// by a target in a process of its own, then checks every result against
// bytes computed locally. Each segment's setup time and RSS are its
// target process's.
func runOpen(ctx context.Context, e *env, p openParams, name string) (*outcome, error) {
	var (
		total       = arrivalCount(p, e.seconds.Seconds())
		k           = p.segments()
		bounds      = segmentBounds(total, k)
		d           loadResult
		delta       = map[string]map[string]float64{"node": {}, "coord": {}}
		setupS, rss []float64
		wall        float64
		workers     int
	)
	for i := 0; i < k; i++ {
		req := &segmentRequest{
			Workload: name, Def: e.def, Seed: e.seed, Total: total, First: bounds[i], Count: bounds[i+1] - bounds[i],
			Repeats: (e.def.SetupRepeats + k - 1) / k, Traced: e.trace != nil, Workdir: e.workdir,
		}
		var s segment
		if err := runChild(ctx, e.workdir, "segment", childRequest{Segment: req}, &s); err != nil {
			return nil, err
		}
		setupS, rss = append(setupS, s.SetupS...), append(rss, s.RSSMB...)
		wall, workers = wall+s.WallS, s.Workers
		for reg, m := range s.Delta {
			for key, v := range m {
				delta[reg][key] += v
			}
		}
		d.Results = append(d.Results, s.Drive.Results...)
		d.LateMs = append(d.LateMs, s.Drive.LateMs...)
		d.Requests += s.Drive.Requests
		if e.trace != nil {
			e.trace.adopt(s.Drive.Spans)
		}
	}
	if late := percentile(d.LateMs, 95); late > e.def.MaxLateMS {
		return nil, fmt.Errorf("run rejected: load generator late by %.2f ms at p95 (limit %g ms)", late, e.def.MaxLateMS)
	}
	out := newOutcome()
	out.metrics["rss_mb"] = median(rss)
	if e.trace != nil {
		openLayers(out.layers, delta, workers, wall, &d, durationsMS(e.trace.snapshot()), p.Nodes > 0)
	}

	// Verify after the timed phase: every distinct spec is simulated here,
	// single node and unsharded, and each arrival's bytes must hash the
	// same.
	arrivals, distinct := planArrivals(p, e.seed, total, k)
	want, err := localHashes(ctx, distinct)
	if err != nil {
		return nil, err
	}
	var all, second []float64
	digest := sha256.New()
	for i, r := range d.Results {
		a := arrivals[i]
		out.attempted++
		switch {
		case r.Err != "":
			out.fail("arrival %d (%s): %s", i, a.class, r.Err)
		case r.Hash != want[a.distinct]:
			out.fail("arrival %d (%s): result bytes differ from the single-node simulation", i, a.class)
		}
		digest.Write([]byte(r.Hash))
		all = append(all, r.LatencyMs)
		if a.class == p.SecondOp {
			second = append(second, r.LatencyMs)
		}
	}
	out.output(name+"/results", hex.EncodeToString(digest.Sum(nil)), e.goldenApplies)
	out.metrics["setup_s"] = median(setupS)
	out.metrics["latency_ms_p50"] = median(all)
	out.metrics["latency_ms_tail"] = percentile(all, tailPercentile(len(all)))
	out.metrics["second_op_ms_p50"] = median(second)
	return out, nil
}

// localHashes simulates each spec the way a dnasimd worker does and
// returns the SHA-256 (hex) of its dataset bytes.
func localHashes(ctx context.Context, specs []server.SimulateSpec) ([]string, error) {
	out := make([]string, len(specs))
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		ch, cov, err := sp.Simulator()
		if err != nil {
			return nil, err
		}
		ds, err := channel.Simulator{Channel: ch, Coverage: cov}.SimulateCtx(ctx, "simulated", sp.References(), sp.Seed)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		out[i] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// openLayers fills the server, client and fleet layer metrics from the
// registry deltas over the driven phases, the load generator's report and
// its spans' durations. workers counts worker goroutines across the
// servers, and wall is the driven phases' total time. On a fleet the
// server metrics sum the worker nodes.
func openLayers(l map[string]float64, delta map[string]map[string]float64, workers int, wall float64, d *loadResult, dur map[string][]float64, isFleet bool) {
	node := func(k string) float64 { return delta["node"][k] }
	sumPrefix := func(reg, prefix string) (s float64) {
		for k, v := range delta[reg] {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}
	attemptS := node("dnasimd_attempt_seconds_sum")
	simS := node(`dnasimd_stage_seconds_sum{stage="channel.simulate"}`)
	if n := node("dnasimd_attempt_seconds_count"); n > 0 {
		l["server.attempt_ms_mean"] = 1000 * attemptS / n
	}
	if n := node(`dnasimd_job_seconds_count{kind="simulate"}`); n > 0 {
		l["server.queue_wait_ms_mean"] = 1000 * (node(`dnasimd_job_seconds_sum{kind="simulate"}`) - attemptS) / n
	}
	l["server.simulate_s"] = simS
	l["server.non_simulate_s"] = attemptS - simS
	l["server.busy_frac"] = attemptS / (float64(workers) * wall)
	l["server.idempotent_replays"] = node("dnasimd_jobs_idempotent_replays_total") + delta["coord"]["dnasimd_jobs_idempotent_replays_total"]
	l["server.requeues"] = node("dnasimd_job_requeues_total")
	l["server.shed"] = sumPrefix("node", "dnasimd_jobs_shed_total{") + sumPrefix("coord", "dnasimd_jobs_shed_total{")

	var polls, mb float64
	var calls int64
	var connWait []float64
	for _, r := range d.Results {
		polls += float64(r.Polls)
		mb += float64(r.Bytes) / 1e6
		calls += int64(r.Calls)
		connWait = append(connWait, r.ConnWait...)
	}
	l["client.submit_ms_p50"] = median(dur["client.submit"])
	l["client.result_ms_p50"] = median(dur["client.result"])
	l["client.polls_per_job"] = polls / float64(len(d.Results))
	l["client.result_mb"] = mb
	l["client.conn_wait_ms_p95"] = percentile(connWait, 95)
	l["client.retries"] = float64(d.Requests - calls)
	l["loadgen.late_ms_p95"] = percentile(d.LateMs, 95)

	if isFleet {
		coord := delta["coord"]
		if hits, misses := coord["dnasimd_fleet_cache_hits_total"], coord["dnasimd_fleet_cache_misses_total"]; hits+misses > 0 {
			l["fleet.cache_hit_ratio"] = hits / (hits + misses)
		}
		l["fleet.shards_completed"] = coord["dnasimd_fleet_shards_completed_total"]
		l["fleet.shard_replacements"] = coord["dnasimd_fleet_shard_replacements_total"]
		l["fleet.spill_writes"] = coord["dnasimd_fleet_spill_writes_total"]
	}
}
