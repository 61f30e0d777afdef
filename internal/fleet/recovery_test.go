package fleet

// Recovery tests: ledger replay semantics (including torn tails), the
// durable spill layer under the memory cache, drain/restart resume, and
// Idempotency-Key replay across a coordinator restart.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/durable"
	"dnastore/internal/obs"
	"dnastore/internal/server"
)

func testSpec(seed uint64) server.SimulateSpec {
	return server.SimulateSpec{NumRefs: 24, RefLen: 60, Seed: seed, Sub: 0.01, Ins: 0.005, Del: 0.01, Coverage: 4}
}

func testJobSpec(seed uint64) server.JobSpec {
	sp := testSpec(seed)
	return server.JobSpec{Kind: server.KindSimulate, Simulate: &sp}
}

// TestCacheEvictionCounter: the FIFO eviction path must tick the wired
// counter once per evicted entry, and never for inserts under capacity.
func TestCacheEvictionCounter(t *testing.T) {
	reg := obs.NewRegistry()
	c := newResultCache(2)
	c.evictions = reg.Counter("dnasimd_fleet_cache_evictions_total", "test")
	for key := uint64(1); key <= 2; key++ {
		if _, _, err := c.do(context.Background(), key, func() ([]byte, error) { return []byte{byte(key)}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.evictions.Value(); got != 0 {
		t.Fatalf("evictions = %d before exceeding capacity, want 0", got)
	}
	for key := uint64(3); key <= 5; key++ {
		if _, _, err := c.do(context.Background(), key, func() ([]byte, error) { return []byte{byte(key)}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.evictions.Value(); got != 3 {
		t.Errorf("evictions = %d after 3 over-capacity inserts, want 3", got)
	}
	if got := c.len(); got != 2 {
		t.Errorf("cache holds %d entries, want capacity 2", got)
	}
	// seed() rides the same eviction path.
	c.seed(6, []byte{6})
	if got := c.evictions.Value(); got != 4 {
		t.Errorf("evictions = %d after seeding over capacity, want 4", got)
	}
}

// TestLedgerReplayStates: one ledger file per job, replayed back into the
// exact record that was journaled — in-flight jobs with no terminal frame,
// finished jobs with their last verdict.
func TestLedgerReplayStates(t *testing.T) {
	dir := t.TempDir()
	store, err := openLedgerStore(dir, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}

	inflight, err := store.create(ledgerAccepted{ID: "f000001", Key: "k1", CreatedUnixMS: 100, ShardClusters: 8, Spec: testJobSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	inflight.shardEvent(ledgerShardEvent{Index: 0, Event: "placed", Node: "w1"})
	inflight.close()

	done, err := store.create(ledgerAccepted{ID: "f000002", CreatedUnixMS: 200, Spec: testJobSpec(2)})
	if err != nil {
		t.Fatal(err)
	}
	done.finish(server.StateDone, "")

	failed, err := store.create(ledgerAccepted{ID: "f000003", CreatedUnixMS: 300, Spec: testJobSpec(3)})
	if err != nil {
		t.Fatal(err)
	}
	failed.finish(server.StateFailed, "boom")

	recs, err := store.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	// Oldest first, by admission time.
	if recs[0].accepted.ID != "f000001" || recs[1].accepted.ID != "f000002" || recs[2].accepted.ID != "f000003" {
		t.Fatalf("replay order: %s, %s, %s", recs[0].accepted.ID, recs[1].accepted.ID, recs[2].accepted.ID)
	}
	if recs[0].finished != nil {
		t.Errorf("in-flight job replayed with terminal frame %+v", recs[0].finished)
	}
	if recs[0].accepted.Key != "k1" || recs[0].accepted.ShardClusters != 8 {
		t.Errorf("accepted record lost fields: %+v", recs[0].accepted)
	}
	if recs[1].finished == nil || recs[1].finished.State != string(server.StateDone) {
		t.Errorf("done job replayed as %+v", recs[1].finished)
	}
	if recs[2].finished == nil || recs[2].finished.State != string(server.StateFailed) || recs[2].finished.Error != "boom" {
		t.Errorf("failed job replayed as %+v", recs[2].finished)
	}
	for _, r := range recs {
		r.led.close()
	}
}

// TestLedgerTornTail: a crash mid-append tears the last frame. Torn past
// the accepted frame, the job must replay from what remains; torn inside
// the accepted frame, the 202 never committed and the file must be deleted
// — never half-adopted.
func TestLedgerTornTail(t *testing.T) {
	dir := t.TempDir()
	store, err := openLedgerStore(dir, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	led, err := store.create(ledgerAccepted{ID: "f000007", CreatedUnixMS: 1, Spec: testJobSpec(7)})
	if err != nil {
		t.Fatal(err)
	}
	led.shardEvent(ledgerShardEvent{Index: 0, Event: "placed", Node: "w1"})
	led.close()

	// Tear a few bytes off the unsynced shard hint.
	data, err := os.ReadFile(led.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(led.path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := store.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].accepted.ID != "f000007" || recs[0].finished != nil {
		t.Fatalf("torn-tail replay: %d records, %+v", len(recs), recs)
	}
	recs[0].led.close()

	// Tear into the accepted frame itself: only the container header (12
	// bytes magic/version/kind) survives cleanly.
	if err := os.WriteFile(led.path, data[:14], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = store.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("half-admitted ledger adopted: %+v", recs[0].accepted)
	}
	if _, err := os.Stat(led.path); !os.IsNotExist(err) {
		t.Error("ledger torn before its accepted frame was not deleted")
	}
}

// TestLedgerSkipsForeignContainers: a container of another kind in the
// ledger directory — a pool named like a ledger, or a checkpoint journal —
// is skipped by replay and left byte-identical, neither truncated nor
// deleted.
func TestLedgerSkipsForeignContainers(t *testing.T) {
	dir := t.TempDir()
	store, err := openLedgerStore(dir, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	pool := filepath.Join(dir, "x.wal")
	err = durable.WriteContainerFile(pool, durable.KindPool, durable.Options{Parity: 8}, func(w *durable.Writer) error {
		return w.WriteFrame("pool.json", []byte(`{"version":1,"objects":[]}`))
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "y.wal")
	j, err := durable.CreateJournal(ckpt, durable.KindCheckpoint, durable.Options{Parity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("header", []byte("run")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	want := map[string][]byte{}
	for _, p := range []string{pool, ckpt} {
		if want[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}

	recs, err := store.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("replay adopted %d foreign files", len(recs))
	}
	for p, b := range want {
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(p), err)
		}
		if !bytes.Equal(got, b) {
			t.Errorf("%s changed by replay: %d bytes, was %d", filepath.Base(p), len(got), len(b))
		}
	}
}

// TestLedgerRetirePrunesOldest: retiring one ledger past ledgerKeep
// deletes the oldest retiree and leaves every later one on disk.
func TestLedgerRetirePrunesOldest(t *testing.T) {
	dir := t.TempDir()
	store, err := openLedgerStore(dir, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, ledgerKeep+1)
	for i := range paths {
		paths[i] = filepath.Join(dir, ledgerFileName(uint64(i), "f"+strconv.Itoa(i)))
		if err := os.WriteFile(paths[i], nil, 0o644); err != nil {
			t.Fatal(err)
		}
		store.retire(paths[i])
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Errorf("oldest retired ledger survived pruning: %v", err)
	}
	for _, p := range paths[1:] {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("ledger within the keep budget was pruned: %v", err)
		}
	}
}

// TestSpillStoreGC: the spill store must enforce its byte budget FIFO,
// survive a reopen with its entries (oldest-first order preserved), and
// treat a corrupt entry as a miss, not an error.
func TestSpillStoreGC(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpillStore(dir, 1, obs.Discard()) // 1-byte budget: everything but the newest evicts
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 128)
	s.put(1, payload)
	s.put(2, payload)
	s.put(3, payload)
	if got := s.entries(); got != 1 {
		t.Fatalf("entries = %d under a 1-byte budget, want 1 (GC keeps the newest)", got)
	}
	if _, ok := s.get(1); ok {
		t.Error("oldest entry survived GC")
	}
	if data, ok := s.get(3); !ok || !bytes.Equal(data, payload) {
		t.Error("newest entry lost or corrupted")
	}

	// Reopen with a generous budget: the survivor is adopted.
	s2, err := openSpillStore(dir, 1<<20, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := s2.get(3); !ok || !bytes.Equal(data, payload) {
		t.Error("reopened store lost the surviving entry")
	}

	// Corrupt the survivor beyond parity: get must drop it and miss.
	path := filepath.Join(dir, spillFileName(3))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.get(3); ok {
		t.Error("corrupt spill entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt spill entry not deleted")
	}
}

// restartCoordinator builds a coordinator over the given workers and data
// dir with drill-shaped timeouts.
func restartCoordinator(t *testing.T, dataDir string, shardClusters int, seed uint64, ws ...*drillWorker) *Coordinator {
	t.Helper()
	var nodes []NodeConfig
	for i, w := range ws {
		nodes = append(nodes, NodeConfig{Name: "w" + strconv.Itoa(i+1), BaseURL: w.url()})
	}
	coord, err := New(Config{
		Nodes:            nodes,
		ShardClusters:    shardClusters,
		MaxShardAttempts: 8,
		DataDir:          dataDir,
		DrainGrace:       2 * time.Second,
		ProbeInterval:    -1,
		Client:           drillClientCfg(seed),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// TestCoordinatorRestartResume: drain a coordinator mid-job, boot a fresh
// one on the same data dir, and the job must complete under its original
// ID with bytes identical to a single-node run — shards finished before
// the drain coming back as spill hits.
func TestCoordinatorRestartResume(t *testing.T) {
	spec := testSpec(21)
	want := groundTruth(t, spec)
	dataDir := t.TempDir()

	w1 := startDrillWorker(t, t.TempDir(), false)
	w2 := startDrillWorker(t, t.TempDir(), false)
	w1.delayNS.Store(int64(3 * time.Millisecond))
	w2.delayNS.Store(int64(3 * time.Millisecond))

	coord1 := restartCoordinator(t, dataDir, 4, 31, w1, w2) // 24 clusters -> 6 shards
	front1 := httptest.NewServer(coord1)
	defer front1.Close()
	cli1 := client.New(client.Config{BaseURL: front1.URL, PollInterval: 5 * time.Millisecond, Seed: 32})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, _, err := cli1.SubmitKeyed(ctx, "", testJobSpecOf(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Drain only once at least one shard has durably spilled, so the
	// restart has something to hit.
	deadline := time.Now().Add(30 * time.Second)
	for coord1.Registry().Snapshot()["dnasimd_fleet_spill_writes_total"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no shard spilled within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	coord1.Drain()

	// Drain parity: the draining/stopped façade answers /readyz with 503
	// and an integer Retry-After, exactly like a single worker.
	resp, err := http.Get(front1.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drained /readyz = %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 3600 {
		t.Errorf("drained Retry-After = %q, want integer in [1, 3600]", resp.Header.Get("Retry-After"))
	}
	// Submissions shed with an accounted reason and a Retry-After hint.
	shedResp, err := http.Post(front1.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"kind":"simulate","simulate":{"num_refs":8,"ref_len":60,"seed":99,"sub":0.01,"coverage":2}}`)))
	if err != nil {
		t.Fatalf("submit during drain: %v", err)
	}
	shedResp.Body.Close()
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drained submit = %d, want 503", shedResp.StatusCode)
	}
	if _, err := strconv.Atoi(shedResp.Header.Get("Retry-After")); err != nil {
		t.Errorf("drained submit Retry-After = %q, want an integer", shedResp.Header.Get("Retry-After"))
	}
	if got := coord1.Registry().Snapshot()[`dnasimd_jobs_shed_total{reason="draining"}`]; got < 1 {
		t.Errorf("shed{draining} = %v, want >= 1", got)
	}
	front1.Close()

	// The parked job must not have reached a terminal state.
	j1, ok := coord1.job(st.ID)
	if !ok {
		t.Fatalf("job %s vanished from the drained coordinator", st.ID)
	}
	if s := j1.snapshot(); s.State.Terminal() {
		t.Fatalf("drained job settled %s; drain must park, not decide", s.State)
	}

	// Restart on the same data dir: the job is re-adopted and completes.
	w1.delayNS.Store(0)
	w2.delayNS.Store(0)
	coord2 := restartCoordinator(t, dataDir, 4, 33, w1, w2)
	front2 := httptest.NewServer(coord2)
	defer front2.Close()
	cli2 := client.New(client.Config{BaseURL: front2.URL, PollInterval: 5 * time.Millisecond, Seed: 34})

	snap := coord2.Registry().Snapshot()
	if got := snap["dnasimd_fleet_ledger_replays_total"]; got != 1 {
		t.Errorf("ledger replays = %v, want 1", got)
	}
	if got := snap["dnasimd_fleet_recovered_jobs_total"]; got != 1 {
		t.Errorf("recovered jobs = %v, want 1", got)
	}

	if got := waitTerminal(t, cli2, st.ID); got.State != server.StateDone {
		t.Fatalf("re-adopted job settled %s: %s", got.State, got.Error)
	}
	data, err := cli2.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result after restart: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("re-adopted job's dataset differs from single-node ground truth")
	}
	if got := coord2.Registry().Snapshot()["dnasimd_fleet_spill_hits_total"]; got < 1 {
		t.Errorf("spill hits = %v, want >= 1 (pre-drain shards must not recompute)", got)
	}
}

func testJobSpecOf(sp server.SimulateSpec) server.JobSpec {
	cp := sp
	return server.JobSpec{Kind: server.KindSimulate, Simulate: &cp}
}

// TestIdempotencyReplayAcrossRestart: a finished job must survive a
// restart — same Idempotency-Key and spec answer with the original job ID
// and byte-identical result, restored purely from the spill store, with no
// new submissions reaching any worker.
func TestIdempotencyReplayAcrossRestart(t *testing.T) {
	spec := testSpec(41)
	want := groundTruth(t, spec)
	dataDir := t.TempDir()

	w1 := startDrillWorker(t, t.TempDir(), false)
	w2 := startDrillWorker(t, t.TempDir(), false)

	coord1 := restartCoordinator(t, dataDir, 8, 51, w1, w2) // 24 clusters -> 3 shards
	front1 := httptest.NewServer(coord1)
	cli1 := client.New(client.Config{BaseURL: front1.URL, PollInterval: 5 * time.Millisecond, Seed: 52})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const key = "replay-across-restart"
	st, replayed, err := cli1.SubmitKeyed(ctx, key, testJobSpecOf(spec))
	if err != nil || replayed {
		t.Fatalf("submit: replayed=%v err=%v", replayed, err)
	}
	if got := waitTerminal(t, cli1, st.ID); got.State != server.StateDone {
		t.Fatalf("job settled %s: %s", got.State, got.Error)
	}
	coord1.Drain()
	front1.Close()

	submittedBefore := w1.srv.Registry().Snapshot()["dnasimd_jobs_submitted_total"] +
		w2.srv.Registry().Snapshot()["dnasimd_jobs_submitted_total"]

	coord2 := restartCoordinator(t, dataDir, 8, 53, w1, w2)
	front2 := httptest.NewServer(coord2)
	defer front2.Close()
	cli2 := client.New(client.Config{BaseURL: front2.URL, PollInterval: 5 * time.Millisecond, Seed: 54})

	// The done job must be restored terminal from spill — not re-run.
	snap := coord2.Registry().Snapshot()
	if got := snap["dnasimd_fleet_ledger_replays_total"]; got != 1 {
		t.Errorf("ledger replays = %v, want 1", got)
	}
	if got := snap["dnasimd_fleet_recovered_jobs_total"]; got != 0 {
		t.Errorf("recovered (re-run) jobs = %v, want 0 — a spill-complete done job restores in place", got)
	}
	if got := snap["dnasimd_fleet_spill_hits_total"]; got != 3 {
		t.Errorf("spill hits = %v, want 3 (one per shard)", got)
	}
	st2, err := cli2.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("status of restored job: %v", err)
	}
	if st2.State != server.StateDone {
		t.Fatalf("restored job is %s, want done", st2.State)
	}

	// Same key + spec: an idempotent replay of the original job.
	st3, replayed, err := cli2.SubmitKeyed(ctx, key, testJobSpecOf(spec))
	if err != nil {
		t.Fatalf("replay submit: %v", err)
	}
	if !replayed {
		t.Error("restart forgot the Idempotency-Key binding")
	}
	if st3.ID != st.ID {
		t.Errorf("replayed job ID = %s, want original %s", st3.ID, st.ID)
	}
	data, err := cli2.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("restored result differs from ground truth")
	}

	submittedAfter := w1.srv.Registry().Snapshot()["dnasimd_jobs_submitted_total"] +
		w2.srv.Registry().Snapshot()["dnasimd_jobs_submitted_total"]
	if submittedAfter != submittedBefore {
		t.Errorf("workers saw %v new submissions across the restart, want 0", submittedAfter-submittedBefore)
	}
}

// TestRetryAfterHintClamp: a coordinator's Retry-After hint must be a
// positive integer bounded by an hour, whatever the drain configuration
// says. The hint comes from the shared front-end's clamp; this checks it
// as a coordinator serves it on /readyz.
func TestRetryAfterHintClamp(t *testing.T) {
	hint := func(t *testing.T, c *Coordinator) int {
		t.Helper()
		w := httptest.NewRecorder()
		c.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("/readyz = %d, want 503", w.Code)
		}
		got, err := strconv.Atoi(w.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q is not delta-seconds: %v", w.Header().Get("Retry-After"), err)
		}
		return got
	}
	coord := func(t *testing.T, grace time.Duration) *Coordinator {
		t.Helper()
		c, err := New(Config{
			Nodes:         []NodeConfig{{Name: "x", BaseURL: "http://127.0.0.1:1"}},
			ProbeInterval: -1,
			DrainGrace:    grace,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	c := coord(t, time.Second)
	c.nodes[0].healthy.Store(false)
	if got := hint(t, c); got != 1 {
		t.Errorf("node-starved hint = %d, want 1", got)
	}

	c = coord(t, 5*time.Second)
	c.Drain()
	if got := hint(t, c); got < 1 || got > 5 {
		t.Errorf("drained hint = %d, want within the 5s grace", got)
	}

	c = coord(t, 48*time.Hour)
	c.Drain()
	if got := hint(t, c); got != 3600 {
		t.Errorf("oversized grace hint = %d, want clamp to one hour", got)
	}

	c = coord(t, time.Millisecond)
	c.Drain()
	time.Sleep(5 * time.Millisecond)
	if got := hint(t, c); got != 1 {
		t.Errorf("expired grace hint = %d, want floor 1", got)
	}
}
