package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/faults"
	"dnastore/internal/rng"
)

// testServer starts a Server with fast supervision timings and tears it
// down with the test.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.StallAfter == 0 {
		cfg.StallAfter = -1 // most tests don't want stall kills
	}
	if cfg.KillGrace == 0 {
		cfg.KillGrace = 200 * time.Millisecond
	}
	if cfg.DrainGrace == 0 {
		cfg.DrainGrace = 2 * time.Second
	}
	s := New(cfg)
	t.Cleanup(s.Drain)
	return s
}

// local returns the local executor behind a Server built by New.
func local(s *Server) *localExec { return s.exec.(*localExec) }

// simSpec is the canonical small simulation job used across tests.
func simSpec(seed uint64) JobSpec {
	return JobSpec{
		Kind: KindSimulate,
		Simulate: &SimulateSpec{
			NumRefs: 24, RefLen: 60, Seed: seed,
			Sub: 0.01, Ins: 0.005, Del: 0.02,
			Coverage: 4,
		},
	}
}

// sequentialResult computes the same job's output without the server: the
// byte-identity oracle.
func sequentialResult(t *testing.T, sp *SimulateSpec) []byte {
	t.Helper()
	ch, cov, err := sp.Simulator()
	if err != nil {
		t.Fatal(err)
	}
	sim := channel.Simulator{Channel: ch, Coverage: cov}
	ds, err := sim.SimulateCtx(context.Background(), "simulated", sp.References(), sp.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awaitTerminal polls a job to a terminal state.
func awaitTerminal(t *testing.T, j *Job, within time.Duration) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(within):
		t.Fatalf("job %s not terminal within %v: %+v", j.ID, within, j.Snapshot())
	}
	return j.Snapshot()
}

// --- HTTP API ---

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, Status) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		json.NewDecoder(resp.Body).Decode(&st)
	}
	resp.Body.Close()
	return resp, st
}

func TestHTTPSubmitPollResult(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := simSpec(7)
	resp, st := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if st.ID == "" || st.Kind != KindSimulate {
		t.Fatalf("submit snapshot: %+v", st)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur Status
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.State.Terminal() {
			if cur.State != StateDone {
				t.Fatalf("job ended %q: %s", cur.State, cur.Error)
			}
			if cur.Progress.Completed != cur.Progress.Total || cur.Progress.Total != 24 {
				t.Errorf("terminal progress %+v, want 24/24", cur.Progress)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", r.StatusCode)
	}
	if want := sequentialResult(t, spec.Simulate); !bytes.Equal(got, want) {
		t.Errorf("server result differs from sequential run (%d vs %d bytes)", len(got), len(want))
	}

	// Unknown and not-yet-done paths.
	if r, _ := http.Get(ts.URL + "/v1/jobs/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", r.StatusCode)
	}
}

func TestHTTPRejectsInvalidSpecs(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for name, spec := range map[string]JobSpec{
		"no kind":        {},
		"no params":      {Kind: KindSimulate},
		"both params":    {Kind: KindSimulate, Simulate: &SimulateSpec{NumRefs: 1, RefLen: 1}, Retrieve: &RetrieveSpec{}},
		"no refs":        {Kind: KindSimulate, Simulate: &SimulateSpec{}},
		"bad rates":      {Kind: KindSimulate, Simulate: &SimulateSpec{NumRefs: 4, RefLen: 8, Sub: 2}},
		"bad faults":     {Kind: KindSimulate, Simulate: &SimulateSpec{NumRefs: 4, RefLen: 8, Faults: "dropout=NaN"}},
		"bad refs":       {Kind: KindSimulate, Simulate: &SimulateSpec{Refs: []string{"XYZ"}}},
		"empty retrieve": {Kind: KindRetrieve, Retrieve: &RetrieveSpec{}},
		"neg timeout":    {Kind: KindSimulate, TimeoutMS: -1, Simulate: &SimulateSpec{NumRefs: 4, RefLen: 8}},
	} {
		if resp, _ := postJob(t, ts, spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", resp.StatusCode)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	var gate atomic.Int64
	gate.Store(1 << 30) // stall every Transmit until released
	s := testServer(t, Config{
		Workers: 1,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.Stall{Base: ch, Release: release, Remaining: &gate}, cov
		},
	})
	defer close(release)

	running, err := s.Submit(simSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(simSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	// The queued job cancels instantly.
	if st, err := s.Cancel(queued.ID); err != nil || st != StateCanceled {
		t.Fatalf("cancel queued: %v %v", st, err)
	}
	if st := awaitTerminal(t, queued, time.Second); st.State != StateCanceled {
		t.Errorf("queued job state = %v", st.State)
	}

	// Wait until the first job is actually running, then cancel it; the
	// stalled goroutine is abandoned and the job settles canceled.
	waitFor(t, 2*time.Second, func() bool { return running.State() == StateRunning })
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if st := awaitTerminal(t, running, 3*time.Second); st.State != StateCanceled {
		t.Errorf("running job state = %v (%s)", st.State, st.Error)
	}
	if _, err := s.Cancel("absent"); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
}

func TestJobDeadlineExceededFails(t *testing.T) {
	release := make(chan struct{})
	var gate atomic.Int64
	gate.Store(1 << 30)
	s := testServer(t, Config{
		Workers: 1,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.Stall{Base: ch, Release: release, Remaining: &gate}, cov
		},
	})
	defer close(release)

	spec := simSpec(3)
	spec.TimeoutMS = 50
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, j, 5*time.Second)
	if st.State != StateFailed {
		t.Fatalf("state = %v, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", st.Error)
	}
	if st.Attempts != 1 {
		t.Errorf("attempts = %d: deadline jobs must not be retried", st.Attempts)
	}
}

// TestWatchdogKillsStallAndRetryIsByteIdentical is the supervision core:
// an attempt that stops making cluster progress is killed by its worker's
// stall timer, requeued, and the retry — the stall window over — produces
// output byte-identical to an undisturbed sequential run.
func TestWatchdogKillsStallAndRetryIsByteIdentical(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var stalls atomic.Int64
	stalls.Store(1) // exactly one Transmit hangs: attempt 1 stalls, attempt 2 is clean
	s := testServer(t, Config{
		Workers:    1,
		StallAfter: 150 * time.Millisecond,
		KillGrace:  50 * time.Millisecond,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.Stall{Base: ch, Release: release, Remaining: &stalls}, cov
		},
	})

	spec := simSpec(11)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, j, 15*time.Second)
	if st.State != StateDone {
		t.Fatalf("state = %v (%s), want done", st.State, st.Error)
	}
	if st.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥2: the stalled attempt must have been killed and requeued", st.Attempts)
	}
	got, _ := j.Result()
	if want := sequentialResult(t, spec.Simulate); !bytes.Equal(got, want) {
		t.Error("post-stall retry output differs from sequential run")
	}

	// Supervision events surface on the metric registry: at least one
	// watchdog kill and one requeue, and exactly one successful finish.
	snap := s.Registry().Snapshot()
	if kills := snap["dnasimd_watchdog_kills_total"]; kills < 1 {
		t.Errorf("watchdog kill counter = %v, want >= 1", kills)
	}
	if rq := snap["dnasimd_job_requeues_total"]; rq < 1 {
		t.Errorf("requeue counter = %v, want >= 1", rq)
	}
	if done := snap[`dnasimd_jobs_finished_total{outcome="done"}`]; done != 1 {
		t.Errorf("finished{done} = %v, want 1", done)
	}
}

// TestStallTimerRearmsOnProgress: the stall window runs from the last
// cluster completed, not from the attempt's start. Clusters that each take
// about StallAfter/3 keep an attempt alive well past 3×StallAfter: the
// timer re-arms on every firing, and the job finishes on its first attempt
// with no kill.
func TestStallTimerRearmsOnProgress(t *testing.T) {
	const stallAfter = 300 * time.Millisecond
	s := testServer(t, Config{
		Workers:    1,
		StallAfter: stallAfter,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			// Four reads per cluster (fixed coverage 4).
			return faults.SlowChannel{Base: ch, Delay: stallAfter / 12}, cov
		},
	})
	spec := simSpec(17)
	// Twelve clusters per simulation worker: each worker sleeps through at
	// least 12×StallAfter/3, so the attempt lasts 4×StallAfter or more.
	spec.Simulate.NumRefs = 12 * runtime.GOMAXPROCS(0)
	start := time.Now()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, j, 60*time.Second)
	if elapsed := time.Since(start); elapsed <= 3*stallAfter {
		t.Fatalf("job took %v, want more than 3×StallAfter = %v", elapsed, 3*stallAfter)
	}
	if st.State != StateDone || st.Attempts != 1 {
		t.Fatalf("state = %v on attempt %d (%s), want done on attempt 1", st.State, st.Attempts, st.Error)
	}
	got, _ := j.Result()
	if want := sequentialResult(t, spec.Simulate); !bytes.Equal(got, want) {
		t.Error("output differs from sequential run")
	}
	snap := s.Registry().Snapshot()
	if kills := snap["dnasimd_watchdog_kills_total"]; kills != 0 {
		t.Errorf("kill counter = %v, want 0", kills)
	}
	if rq := snap["dnasimd_job_requeues_total"]; rq != 0 {
		t.Errorf("requeue counter = %v, want 0", rq)
	}
}

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAttemptCapFailsJob: a deterministic per-cluster panic (drawn from
// the split RNG, so it recurs every attempt) must exhaust the attempt cap
// and fail, not retry forever.
func TestAttemptCapFailsJob(t *testing.T) {
	s := testServer(t, Config{
		Workers:     1,
		MaxAttempts: 2,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return panicAlways{ch}, cov
		},
	})
	j, err := s.Submit(simSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	st := awaitTerminal(t, j, 10*time.Second)
	if st.State != StateFailed {
		t.Fatalf("state = %v, want failed", st.State)
	}
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want exactly the cap", st.Attempts)
	}
	if !strings.Contains(st.Error, "attempts exhausted") {
		t.Errorf("error = %q", st.Error)
	}
}

// panicAlways panics on every transmit — a permanently broken channel.
type panicAlways struct{ base channel.Channel }

func (p panicAlways) AppendTransmit([]byte, []dna.Base, *rng.RNG, *channel.Scratch) []byte {
	panic("server_test: permanently broken channel")
}
func (p panicAlways) Name() string { return p.base.Name() + "+panic" }
