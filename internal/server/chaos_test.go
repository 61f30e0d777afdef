package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/faults"
	"dnastore/internal/rng"
	"dnastore/internal/store"
)

// Chaos drills: the fault-injection subsystem wired into a running server.
// Each drill injects a failure mode from the acceptance list — transient
// cluster panics, overload, pool-file rot, a drain mid-simulation — and
// asserts both that the server survives and that the output of every job
// that completes is byte-identical to an undisturbed sequential run.

// scrapeMetric fetches GET /metrics through the server's own HTTP handler
// and returns the value of one series — the same path an operator's
// Prometheus scrape takes, so the drills verify the exposition end to end.
func scrapeMetric(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s has unparseable value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in /metrics:\n%s", series, body)
	return 0
}

// TestChaosFlakyPanicRetriesConverge: the first few Transmit calls panic.
// SimulateCtx confines each panic to its cluster, the supervisor retries
// the attempt, and the retry — the fault budget spent — must reproduce the
// undisturbed output exactly, because the injector never consumed RNG.
func TestChaosFlakyPanicRetriesConverge(t *testing.T) {
	var budget atomic.Int64
	budget.Store(3)
	var logs lockedBuffer
	s := testServer(t, Config{
		Workers: 2,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.FlakyPanic{Base: ch, Remaining: &budget}, cov
		},
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})

	spec := simSpec(21)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, j, 15*time.Second)
	if st.State != StateDone {
		t.Fatalf("state = %v (%s), want done", st.State, st.Error)
	}
	if st.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥2: the panicking attempt must have been retried", st.Attempts)
	}
	got, _ := j.Result()
	if want := sequentialResult(t, spec.Simulate); !bytes.Equal(got, want) {
		t.Error("post-panic retry output differs from sequential run")
	}
	if want := `msg="job requeued" job=` + j.ID + " "; !strings.Contains(logs.String(), want) {
		t.Errorf("no requeue record for job %s in the server log:\n%s", j.ID, logs.String())
	}
}

// lockedBuffer is a log sink the test can read while server goroutines
// are still writing to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestChaosOverloadShedsWithRetryAfter: with one slow worker and a
// two-slot queue, a burst of submissions is shed with 503 + Retry-After
// while every admitted job still completes — the first one byte-identically.
func TestChaosOverloadShedsWithRetryAfter(t *testing.T) {
	s := testServer(t, Config{
		Workers:       1,
		QueueCapacity: 2,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.SlowChannel{Base: ch, Delay: 8 * time.Millisecond}, cov
		},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, first := postJob(t, ts, simSpec(31))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	running, _ := s.Job(first.ID)
	waitFor(t, 5*time.Second, func() bool { return running.State() == StateRunning })

	// The worker is busy; two more fill the queue, the fourth is shed.
	var admitted []string
	for i := 0; i < 2; i++ {
		resp, st := postJob(t, ts, simSpec(uint64(32+i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queued submit %d = %d", i, resp.StatusCode)
		}
		admitted = append(admitted, st.ID)
	}
	resp, _ = postJob(t, ts, simSpec(99))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Error("shed response missing Retry-After")
	} else if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1 (err=%v)", ra, err)
	}

	// The shed is visible on /metrics, scraped through the same handler.
	if got := scrapeMetric(t, ts, `dnasimd_jobs_shed_total{reason="queue_full"}`); got != 1 {
		t.Errorf(`shed counter = %v, want 1 (one overflow submission)`, got)
	}
	if got := scrapeMetric(t, ts, "dnasimd_jobs_submitted_total"); got != 3 {
		t.Errorf("submitted counter = %v, want 3", got)
	}

	// Every admitted job completes despite the overload...
	for _, id := range append([]string{first.ID}, admitted...) {
		j, _ := s.Job(id)
		if st := awaitTerminal(t, j, 30*time.Second); st.State != StateDone {
			t.Errorf("job %s = %v (%s)", id, st.State, st.Error)
		}
	}
	// ...and the first one byte-identically to a sequential run.
	got, _ := running.Result()
	if want := sequentialResult(t, simSpec(31).Simulate); !bytes.Equal(got, want) {
		t.Error("overloaded job output differs from sequential run")
	}
	if done := scrapeMetric(t, ts, `dnasimd_jobs_finished_total{outcome="done"}`); done != 3 {
		t.Errorf("finished{done} = %v, want 3", done)
	}
}

// TestChaosBreakerTripsAndRecovers: a rotten pool file makes consecutive
// loads fail, tripping the I/O breaker; subsequent jobs fail fast without
// touching disk; once the file is restored and the cooldown passes, the
// half-open probe recovers and retrieval succeeds end to end.
func TestChaosBreakerTripsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	poolPath := filepath.Join(dir, "pool.dnas")
	payload := []byte("the quick brown fox jumps over the lazy dog")
	pool := store.New(store.Options{Seed: 5})
	if err := pool.Store("k", payload); err != nil {
		t.Fatal(err)
	}
	// Rot first: the file exists but is garbage, so every load fails.
	if err := os.WriteFile(poolPath, []byte("DNAPOOLv1 but bit-rotted beyond parity"), 0o644); err != nil {
		t.Fatal(err)
	}

	cooldown := 400 * time.Millisecond
	s := testServer(t, Config{
		Workers:          1,
		MaxAttempts:      1, // isolate breaker behaviour from retry behaviour
		BreakerThreshold: 2,
		BreakerCooldown:  cooldown,
	})
	retrieve := func(seed uint64) JobSpec {
		return JobSpec{Kind: KindRetrieve, Retrieve: &RetrieveSpec{
			PoolPath: poolPath, Key: "k",
			ErrorRate: 0.01, Coverage: 16, Seed: seed, Retries: 4, Backoff: 1.5,
		}}
	}

	// Two consecutive load failures trip the breaker...
	for i := uint64(0); i < 2; i++ {
		j, err := s.Submit(retrieve(i))
		if err != nil {
			t.Fatal(err)
		}
		st := awaitTerminal(t, j, 10*time.Second)
		if st.State != StateFailed || !strings.Contains(st.Error, "load pool") {
			t.Fatalf("rotten load %d: %v (%s)", i, st.State, st.Error)
		}
	}
	if st := local(s).breaker.State(); st != BreakerOpen {
		t.Fatalf("breaker = %v after consecutive load failures, want open", st)
	}

	// ...so the next job is shed by the breaker without touching the disk.
	j, err := s.Submit(retrieve(2))
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, j, 10*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, "breaker open") {
		t.Fatalf("fast-fail job: %v (%s), want breaker-open failure", st.State, st.Error)
	}

	// Restore the file; after the cooldown the half-open probe succeeds and
	// the breaker closes.
	if err := pool.SaveFile(poolPath); err != nil {
		t.Fatal(err)
	}
	time.Sleep(cooldown + 100*time.Millisecond)
	good, err := s.Submit(retrieve(3))
	if err != nil {
		t.Fatal(err)
	}
	st = awaitTerminal(t, good, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("post-recovery retrieve = %v (%s), want done", st.State, st.Error)
	}
	if got, _ := good.Result(); !bytes.Equal(got, payload) {
		t.Errorf("recovered %q, want %q", got, payload)
	}
	if bst := local(s).breaker.State(); bst != BreakerClosed {
		t.Errorf("breaker = %v after successful probe, want closed", bst)
	}

	// The drill's exact transition history is on the metric surface: one
	// trip, one half-open probe admission, one close on probe success.
	snap := s.Registry().Snapshot()
	for series, want := range map[string]float64{
		`dnasimd_breaker_transitions_total{to="open"}`:      1,
		`dnasimd_breaker_transitions_total{to="half-open"}`: 1,
		`dnasimd_breaker_transitions_total{to="closed"}`:    1,
		"dnasimd_breaker_open":                              0,
	} {
		if got := snap[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// countingChannel counts transmit calls without consuming RNG or touching
// output — evidence of how much work an attempt actually did.
type countingChannel struct {
	base  channel.Channel
	calls *atomic.Int64
}

func (c countingChannel) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *channel.Scratch) []byte {
	c.calls.Add(1)
	return c.base.AppendTransmit(dst, ref, r, scr)
}
func (c countingChannel) Name() string { return c.base.Name() }

// TestChaosDrainCheckpointsAndResumesByteIdentical is the drain drill: a
// slow simulation is mid-flight when the server drains. The job must park
// as checkpointed with its journal on disk, readiness must flip and new
// submissions shed; a fresh server on the same data dir given the
// identical spec must resume from the journal (doing strictly less
// channel work than a full run) and produce byte-identical output.
func TestChaosDrainCheckpointsAndResumesByteIdentical(t *testing.T) {
	dataDir := t.TempDir()
	spec := simSpec(41)

	s1 := testServer(t, Config{
		Workers: 1,
		DataDir: dataDir,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.SlowChannel{Base: ch, Delay: 10 * time.Millisecond}, cov
		},
	})
	ts := httptest.NewServer(s1)
	defer ts.Close()

	resp, st := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	j1, _ := s1.Job(st.ID)

	// Let a few clusters commit to the journal, then drain mid-flight.
	waitFor(t, 10*time.Second, func() bool { return j1.Snapshot().Progress.Completed >= 3 })
	s1.Drain()

	fin := awaitTerminal(t, j1, time.Second)
	if fin.State != StateCheckpointed {
		t.Fatalf("drained job = %v (%s), want checkpointed", fin.State, fin.Error)
	}
	if !fin.Resumable {
		t.Error("checkpointed job not marked resumable")
	}
	if fin.Progress.Completed == 0 || fin.Progress.Completed >= fin.Progress.Total {
		t.Errorf("drained mid-flight but progress = %+v", fin.Progress)
	}
	ckptPath := filepath.Join(dataDir, journalName(t, spec))
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("journal missing after drain: %v", err)
	}

	// The drained server refuses new work but still answers status queries.
	if r, _ := http.Get(ts.URL + "/readyz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain = %d, want 503", r.StatusCode)
	}
	if resp, _ := postJob(t, ts, simSpec(42)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after drain = %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain shed missing Retry-After")
	}
	if r, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID); r.StatusCode != http.StatusOK {
		t.Errorf("status query after drain = %d", r.StatusCode)
	}

	// A fresh server on the same data dir, handed the identical spec,
	// resumes the journal rather than restarting.
	var calls atomic.Int64
	s2 := testServer(t, Config{
		Workers: 1,
		DataDir: dataDir,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return countingChannel{base: ch, calls: &calls}, cov
		},
	})
	j2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 := awaitTerminal(t, j2, 30*time.Second)
	if st2.State != StateDone {
		t.Fatalf("resumed job = %v (%s), want done", st2.State, st2.Error)
	}

	fullRun := spec.Simulate.NumRefs * int(spec.Simulate.Coverage)
	if n := calls.Load(); n == 0 || n >= int64(fullRun) {
		t.Errorf("resumed attempt made %d Transmit calls, want >0 and < %d (a full run): journal not used", n, fullRun)
	}
	got, _ := j2.Result()
	if want := sequentialResult(t, spec.Simulate); !bytes.Equal(got, want) {
		t.Error("drain/resume output differs from uninterrupted sequential run")
	}
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Errorf("journal not removed after completion: %v", err)
	}
}

// journalName mirrors the server's fingerprint-derived checkpoint name.
func journalName(t *testing.T, spec JobSpec) string {
	t.Helper()
	e := &localExec{cfg: Config{DataDir: "x"}}
	path := e.jobCheckpointPath(&Job{Spec: spec})
	if path == "" {
		t.Fatal("spec has no checkpoint path")
	}
	return filepath.Base(path)
}

// TestChaosDrainCancelsQueuedJobs: queued-but-unstarted work has nothing
// to checkpoint; drain must cancel it promptly rather than strand it.
func TestChaosDrainCancelsQueuedJobs(t *testing.T) {
	release := make(chan struct{})
	var gate atomic.Int64
	gate.Store(1 << 30)
	s := testServer(t, Config{
		Workers:    1,
		KillGrace:  50 * time.Millisecond,
		DrainGrace: 500 * time.Millisecond,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.Stall{Base: ch, Release: release, Remaining: &gate}, cov
		},
	})
	defer close(release)

	running, err := s.Submit(simSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return running.State() == StateRunning })
	queued, err := s.Submit(simSpec(52))
	if err != nil {
		t.Fatal(err)
	}

	s.Drain()
	if st := queued.State(); st != StateCanceled {
		t.Errorf("queued job after drain = %v, want canceled", st)
	}
	// The stalled running job has no journal (no data dir): after the
	// grace it is canceled, not left running.
	if st := awaitTerminal(t, running, 2*time.Second); st.State != StateCanceled {
		t.Errorf("stalled job after drain = %v (%s), want canceled", st.State, st.Error)
	}
	if ph := s.Phase(); ph != PhaseStopped {
		t.Errorf("phase after drain = %v, want stopped", ph)
	}
}
