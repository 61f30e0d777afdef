package fleet

// The fleet drills run real worker dnasimd servers behind real sockets
// (and chaosnet proxies where a node must die) and assert the coordinator's
// core promise: whatever fails mid-run, the merged dataset is byte-identical
// to a single-node simulation of the same spec, and every cluster is
// accounted for exactly once.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/chaosnet"
	"dnastore/internal/client"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
	"dnastore/internal/server"
)

// pacedChannel wraps the spec's channel, counting transmits and sleeping a
// settable delay per transmit, so a drill can hold a worker mid-shard and
// observe exactly how much work each node did.
type pacedChannel struct {
	channel.Channel
	delayNS *atomic.Int64
	n       *atomic.Int64
}

func (p pacedChannel) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *channel.Scratch) []byte {
	p.n.Add(1)
	if d := p.delayNS.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return p.Channel.AppendTransmit(dst, ref, r, scr)
}

type drillWorker struct {
	srv       *server.Server
	ts        *httptest.Server
	proxy     *chaosnet.Proxy
	transmits atomic.Int64
	delayNS   atomic.Int64
}

func (w *drillWorker) url() string {
	if w.proxy != nil {
		return w.proxy.URL()
	}
	return w.ts.URL
}

// startDrillWorker boots one worker dnasimd with a pacing wrapper and,
// when proxied, a chaosnet proxy in front of it for staged node death.
func startDrillWorker(t *testing.T, dataDir string, proxied bool) *drillWorker {
	t.Helper()
	w := &drillWorker{}
	w.srv = server.New(server.Config{
		Workers:    4,
		DataDir:    dataDir,
		DrainGrace: 5 * time.Second,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return pacedChannel{Channel: ch, delayNS: &w.delayNS, n: &w.transmits}, cov
		},
	})
	w.ts = httptest.NewServer(w.srv)
	t.Cleanup(w.ts.Close)
	if proxied {
		p, err := chaosnet.Listen(w.ts.Listener.Addr().String(), chaosnet.Scenario{}, 1)
		if err != nil {
			t.Fatalf("chaosnet.Listen: %v", err)
		}
		w.proxy = p
		t.Cleanup(func() { p.Close() })
	}
	return w
}

// drillClientCfg is the coordinator's per-node client template for drills:
// tight budgets so a dead node is detected in about a second, and
// keep-alives disabled so a blackhole catches every subsequent exchange
// instead of letting pooled connections sail past it.
func drillClientCfg(seed uint64) client.Config {
	return client.Config{
		HTTPClient:     &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		MaxAttempts:    2,
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		PerCallTimeout: 500 * time.Millisecond,
		PollInterval:   5 * time.Millisecond,
		Seed:           seed,
	}
}

// groundTruth simulates the spec single-node, in-process — the bytes every
// fleet run must reproduce exactly.
func groundTruth(t *testing.T, spec server.SimulateSpec) []byte {
	t.Helper()
	sp := spec
	if err := sp.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	ch, cov, err := sp.Simulator()
	if err != nil {
		t.Fatalf("simulator: %v", err)
	}
	ds, err := channel.Simulator{Channel: ch, Coverage: cov}.SimulateCtx(context.Background(), "simulated", sp.References(), sp.Seed)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

func fetchReport(t *testing.T, base, id string) Report {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", resp.StatusCode)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	return rep
}

func waitTerminal(t *testing.T, cli *client.Client, id string) server.Status {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := cli.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after a minute", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetDrillNodeDeath is the conservation drill: three workers, one
// blackholed mid-shard, and the merged dataset must still be byte-identical
// to a single-node run, with every cluster produced exactly once. A second
// submission of the same spec must then be served from the result cache.
func TestFleetDrillNodeDeath(t *testing.T) {
	spec := server.SimulateSpec{NumRefs: 96, RefLen: 80, Seed: 11, Sub: 0.01, Ins: 0.005, Del: 0.01, Coverage: 4}
	want := groundTruth(t, spec)

	w1 := startDrillWorker(t, t.TempDir(), false)
	w2 := startDrillWorker(t, t.TempDir(), false)
	w3 := startDrillWorker(t, t.TempDir(), true)
	w1.delayNS.Store(int64(500 * time.Microsecond))
	w2.delayNS.Store(int64(500 * time.Microsecond))
	// w3 is slow enough that its shards are reliably in flight when the
	// blackhole drops.
	w3.delayNS.Store(int64(10 * time.Millisecond))

	coord, err := New(Config{
		Nodes: []NodeConfig{
			{Name: "w1", BaseURL: w1.url()},
			{Name: "w2", BaseURL: w2.url()},
			{Name: "w3", BaseURL: w3.url()},
		},
		ShardClusters:    8, // 96 clusters -> 12 shards
		MaxShardAttempts: 8,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Client:           drillClientCfg(1),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord)
	defer front.Close()
	cli := client.New(client.Config{BaseURL: front.URL, PollInterval: 10 * time.Millisecond, Seed: 2})

	// Kill w3 once it is demonstrably mid-shard: a shard is 8 clusters of
	// ~4 reads, so 8 transmits in means its first shard cannot have
	// delivered a result yet and dies with work in flight.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(30 * time.Second)
		for w3.transmits.Load() < 8 {
			if time.Now().After(deadline) {
				t.Error("w3 never started transmitting; rendezvous gave it no shards")
				return
			}
			time.Sleep(time.Millisecond)
		}
		w3.proxy.SetBlackhole(true)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res := cli.Run(ctx, server.JobSpec{Kind: server.KindSimulate, Simulate: &spec})
	<-killed
	if res.Outcome != client.OutcomeSucceeded {
		t.Fatalf("fleet run settled %s: %v", res.Outcome, res.Err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatalf("merged dataset differs from single-node ground truth (%d vs %d bytes)", len(res.Data), len(want))
	}

	snap := coord.Registry().Snapshot()
	if got := snap["dnasimd_fleet_shard_replacements_total"]; got < 1 {
		t.Errorf("shard replacements = %v, want >= 1 after node death", got)
	}
	if got := snap["dnasimd_fleet_cache_misses_total"]; got != 12 {
		t.Errorf("cache misses = %v, want 12 (one per shard)", got)
	}
	if got := snap["dnasimd_fleet_shards_erased_total"]; got != 0 {
		t.Errorf("shards erased = %v, want 0 (no cluster may be lost)", got)
	}

	// The shard ledger must partition [0, NumRefs) exactly: no holes, no
	// overlaps, no erasures, every shard attributed.
	rep := fetchReport(t, front.URL, res.JobID)
	next := 0
	for i, st := range rep.Shards {
		if st.Index != i || st.First != next {
			t.Fatalf("shard ledger hole at %d: %+v", i, st)
		}
		if st.Erased {
			t.Errorf("shard %d erased in a run that should conserve every cluster", i)
		}
		if !st.CacheHit && st.Node == "" {
			t.Errorf("shard %d has no producing node", i)
		}
		next += st.Count
	}
	if next != rep.TotalClusters || next != spec.NumRefs {
		t.Fatalf("ledger covers %d clusters, want %d", next, spec.NumRefs)
	}

	// Duplicate spec under a fresh idempotency key: a new job, but every
	// shard must come from the content-addressed cache.
	st2, replayed, err := cli.SubmitKeyed(ctx, "drill-rerun", server.JobSpec{Kind: server.KindSimulate, Simulate: &spec})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if replayed {
		t.Fatal("fresh idempotency key replayed the old job; the cache, not idempotency, should dedupe")
	}
	if st := waitTerminal(t, cli, st2.ID); st.State != server.StateDone {
		t.Fatalf("duplicate run settled %s: %s", st.State, st.Error)
	}
	data2, err := cli.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("duplicate result: %v", err)
	}
	if !bytes.Equal(data2, want) {
		t.Fatal("duplicate-spec dataset differs from ground truth")
	}
	snap2 := coord.Registry().Snapshot()
	if got := snap2["dnasimd_fleet_cache_hits_total"]; got != 12 {
		t.Errorf("cache hits = %v, want 12 (every shard of the duplicate run)", got)
	}
	if got := snap2["dnasimd_fleet_cache_misses_total"]; got != 12 {
		t.Errorf("cache misses = %v, want still 12 (duplicate run computed nothing)", got)
	}

	// The facade exports the dnaload settle/reconcile series.
	if got := snap2["dnasimd_jobs_submitted_total"]; got != 2 {
		t.Errorf("jobs submitted = %v, want 2", got)
	}
	if got := snap2[`dnasimd_jobs_finished_total{outcome="done"}`]; got != 2 {
		t.Errorf("jobs done = %v, want 2", got)
	}
	if got := snap2["dnasimd_queue_depth"] + snap2["dnasimd_jobs_running"]; got != 0 {
		t.Errorf("queue depth + running = %v at quiescence, want 0", got)
	}
}

// TestFleetDrillStagedPipeline runs the node-death drill on a staged
// pipeline spec — synthesis → PCR (with amplification skew) → aging (with
// breakage) → sequencing. The pool stages draw coverage from per-cluster
// RNGs, so sharding must not move a single draw: the merged dataset must be
// byte-identical to the single-node run even with a node blackholed
// mid-shard, and a duplicate submission must hit the shard cache on the
// pipeline fingerprints.
func TestFleetDrillStagedPipeline(t *testing.T) {
	spec := server.SimulateSpec{
		NumRefs: 48, RefLen: 80, Seed: 17,
		Stages:   "synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew",
		Coverage: 6, CoverageModel: "negbin",
	}
	want := groundTruth(t, spec)

	w1 := startDrillWorker(t, t.TempDir(), false)
	w2 := startDrillWorker(t, t.TempDir(), false)
	w3 := startDrillWorker(t, t.TempDir(), true)
	w1.delayNS.Store(int64(500 * time.Microsecond))
	w2.delayNS.Store(int64(500 * time.Microsecond))
	w3.delayNS.Store(int64(10 * time.Millisecond))

	coord, err := New(Config{
		Nodes: []NodeConfig{
			{Name: "w1", BaseURL: w1.url()},
			{Name: "w2", BaseURL: w2.url()},
			{Name: "w3", BaseURL: w3.url()},
		},
		ShardClusters:    8, // 48 clusters -> 6 shards
		MaxShardAttempts: 8,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Client:           drillClientCfg(6),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord)
	defer front.Close()
	cli := client.New(client.Config{BaseURL: front.URL, PollInterval: 10 * time.Millisecond, Seed: 7})

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(30 * time.Second)
		for w3.transmits.Load() < 8 {
			if time.Now().After(deadline) {
				t.Error("w3 never started transmitting; rendezvous gave it no shards")
				return
			}
			time.Sleep(time.Millisecond)
		}
		w3.proxy.SetBlackhole(true)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res := cli.Run(ctx, server.JobSpec{Kind: server.KindSimulate, Simulate: &spec})
	<-killed
	if res.Outcome != client.OutcomeSucceeded {
		t.Fatalf("staged fleet run settled %s: %v", res.Outcome, res.Err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatalf("merged staged dataset differs from single-node ground truth (%d vs %d bytes)", len(res.Data), len(want))
	}

	// The ledger must partition the cluster range with nothing erased.
	rep := fetchReport(t, front.URL, res.JobID)
	next := 0
	for i, st := range rep.Shards {
		if st.Index != i || st.First != next {
			t.Fatalf("shard ledger hole at %d: %+v", i, st)
		}
		if st.Erased {
			t.Errorf("shard %d erased; staged pipelines must conserve clusters too", i)
		}
		next += st.Count
	}
	if next != spec.NumRefs {
		t.Fatalf("ledger covers %d clusters, want %d", next, spec.NumRefs)
	}

	// Duplicate spec: every shard must come from the content-addressed cache
	// keyed on the staged-spec fingerprint.
	st2, _, err := cli.SubmitKeyed(ctx, "staged-rerun", server.JobSpec{Kind: server.KindSimulate, Simulate: &spec})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st := waitTerminal(t, cli, st2.ID); st.State != server.StateDone {
		t.Fatalf("duplicate staged run settled %s: %s", st.State, st.Error)
	}
	data2, err := cli.Result(ctx, st2.ID)
	if err != nil {
		t.Fatalf("duplicate result: %v", err)
	}
	if !bytes.Equal(data2, want) {
		t.Fatal("duplicate staged-spec dataset differs from ground truth")
	}
	snap := coord.Registry().Snapshot()
	if got := snap["dnasimd_fleet_cache_hits_total"]; got != 6 {
		t.Errorf("cache hits = %v, want 6 (every shard of the duplicate run)", got)
	}
	if got := snap["dnasimd_fleet_cache_misses_total"]; got != 6 {
		t.Errorf("cache misses = %v, want still 6 (duplicate run computed nothing)", got)
	}
}

// TestFleetDrillHedge: a straggling shard on a slow node must fire a hedge
// on the next-ranked node, and the first result must win without changing
// a byte of the output.
func TestFleetDrillHedge(t *testing.T) {
	spec := server.SimulateSpec{NumRefs: 16, RefLen: 60, Seed: 5, Sub: 0.01, Coverage: 4}
	want := groundTruth(t, spec)

	wa := startDrillWorker(t, t.TempDir(), false)
	wb := startDrillWorker(t, t.TempDir(), false)
	coord, err := New(Config{
		Nodes:         []NodeConfig{{Name: "a", BaseURL: wa.url()}, {Name: "b", BaseURL: wb.url()}},
		ShardClusters: spec.NumRefs, // one shard: the hedge race is the whole job
		HedgeAfter:    25 * time.Millisecond,
		ProbeInterval: -1,
		Client:        client.Config{PollInterval: 5 * time.Millisecond, Seed: 3},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()

	// Slow down whichever node rendezvous places the shard on, so the
	// hedge deterministically fires and the backup deterministically wins.
	vspec := spec
	if err := vspec.Validate(); err != nil {
		t.Fatal(err)
	}
	sh := shardsOf(vspec, coord.cfg.ShardClusters)[0]
	ranked := rank(coord.nodes, sh.key)
	workers := map[string]*drillWorker{"a": wa, "b": wb}
	workers[ranked[0].name].delayNS.Store(int64(50 * time.Millisecond))

	data, rep, err := coord.Simulate(context.Background(), spec)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("hedged dataset differs from ground truth")
	}
	st := rep.Shards[0]
	if !st.Hedged {
		t.Errorf("shard was not hedged: %+v", st)
	}
	if st.Node != ranked[1].name {
		t.Errorf("shard won by %q, want the hedged backup %q", st.Node, ranked[1].name)
	}
	if got := coord.Registry().Snapshot()["dnasimd_fleet_hedges_fired_total"]; got < 1 {
		t.Errorf("hedges fired = %v, want >= 1", got)
	}
	if workers[ranked[1].name].transmits.Load() == 0 {
		t.Error("backup node never worked the shard")
	}
}

// TestFleetShardHandoffResume: when a shard's placed node dies after
// checkpointing part of its range to a shared data directory, the
// re-placed shard must resume the orphan journal — producing identical
// bytes while recomputing only the unjournaled tail.
func TestFleetShardHandoffResume(t *testing.T) {
	shared := t.TempDir()
	spec := server.SimulateSpec{NumRefs: 24, RefLen: 60, Seed: 7, Sub: 0.02, Coverage: 4}
	want := groundTruth(t, spec)

	wa := startDrillWorker(t, shared, true)
	wb := startDrillWorker(t, shared, true)
	coord, err := New(Config{
		Nodes:            []NodeConfig{{Name: "a", BaseURL: wa.url()}, {Name: "b", BaseURL: wb.url()}},
		ShardClusters:    spec.NumRefs, // one shard: one journal, one handoff
		MaxShardAttempts: 6,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     150 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Client:           drillClientCfg(4),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()

	// Stage the doomed node's death: rendezvous says where the shard will
	// land; write the journal that node would have left behind (10 of 24
	// clusters committed, exactly as the server would have journaled them)
	// and blackhole it before the coordinator reaches it.
	vspec := spec
	if err := vspec.Validate(); err != nil {
		t.Fatal(err)
	}
	sh := shardsOf(vspec, coord.cfg.ShardClusters)[0]
	ranked := rank(coord.nodes, sh.key)
	workers := map[string]*drillWorker{"a": wa, "b": wb}
	doomed, survivor := workers[ranked[0].name], workers[ranked[1].name]

	const committed = 10
	ch, cov, err := vspec.Simulator()
	if err != nil {
		t.Fatal(err)
	}
	sim := channel.Simulator{Channel: ch, Coverage: cov}
	path := filepath.Join(shared, fmt.Sprintf("sim-%016x.ckpt", sh.key))
	ckpt, err := channel.OpenCheckpoint(path, "simulated", vspec.References(), vspec.Seed, sim.Describe())
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	if _, err := sim.SimulateRange(context.Background(), "simulated", vspec.References(), vspec.Seed, 0, committed, ckpt); err != nil {
		t.Fatalf("pre-journal: %v", err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	doomed.proxy.SetBlackhole(true)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	data, rep, err := coord.Simulate(ctx, spec)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("resumed dataset differs from ground truth")
	}

	st := rep.Shards[0]
	if !st.Resumed {
		t.Errorf("shard did not resume the orphan journal: %+v", st)
	}
	if st.Node != ranked[1].name {
		t.Errorf("shard produced by %q, want survivor %q", st.Node, ranked[1].name)
	}
	if st.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (the placement moved)", st.Attempts)
	}
	if got := coord.Registry().Snapshot()["dnasimd_fleet_shard_replacements_total"]; got < 1 {
		t.Errorf("replacements = %v, want >= 1", got)
	}
	if got := doomed.transmits.Load(); got != 0 {
		t.Errorf("doomed node transmitted %d reads; the blackhole should have kept it idle", got)
	}

	// Resume, not recompute: the survivor owes exactly the reads of the
	// unjournaled tail — reads per cluster are deterministic, so the count
	// is exact.
	ds, err := dataset.Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	tail := 0
	for i := committed; i < ds.NumClusters(); i++ {
		tail += len(ds.Clusters[i].Reads)
	}
	if got := survivor.transmits.Load(); got != int64(tail) {
		t.Errorf("survivor transmitted %d reads, want exactly the %d-read tail (resume must skip journaled clusters)", got, tail)
	}
}
