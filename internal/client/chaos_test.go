package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dnastore/internal/chaosnet"
	"dnastore/internal/server"
)

// TestChaosDrillConservation is the end-to-end drill from the issue's
// acceptance criteria: a fleet of resilient clients drives a real dnasimd
// server through the chaosnet proxy — connection resets, slow-loris
// responses, corrupted bodies, truncations, connect latency, and a
// mid-drill blackhole window — and the books must balance afterwards:
//
//   - every submitted job reaches exactly one client-side terminal
//     outcome (nothing hangs, nothing is lost);
//   - no job is duplicated: the server's submitted counter equals the
//     number of distinct job IDs the clients hold, so a retried submit
//     racing a success never admitted a second copy;
//   - the server's finished counters sum to its submitted counter, so
//     the server-side ledger closes too.
func TestChaosDrillConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill takes seconds of wall time")
	}

	srv := server.New(server.Config{
		QueueCapacity: 256,
		Workers:       4,
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	sc := chaosnet.Scenario{
		None:               0.55,
		ConnectLatency:     0.10,
		Reset:              0.12,
		SlowLoris:          0.06,
		Truncate:           0.12,
		Corrupt:            0.05,
		MaxConnectLatency:  80 * time.Millisecond,
		ResetAfterBytes:    150,
		TruncateAfterBytes: 150,
	}
	proxy, err := chaosnet.Listen(hs.Listener.Addr().String(), sc, 20260808)
	if err != nil {
		t.Fatalf("chaosnet.Listen: %v", err)
	}
	defer proxy.Close()

	// One fault draw per HTTP request: the drill's whole point is that
	// every exchange crosses the chaotic wire fresh.
	httpClient := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	c := New(Config{
		BaseURL:        proxy.URL(),
		HTTPClient:     httpClient,
		MaxAttempts:    40,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		PerCallTimeout: 250 * time.Millisecond,
		PollInterval:   10 * time.Millisecond,
		Seed:           7,
	})

	// Mid-drill blackhole: for 800ms no request gets a single response
	// byte. Clients must ride it out on per-call timeouts + backoff.
	go func() {
		time.Sleep(300 * time.Millisecond)
		proxy.SetBlackhole(true)
		time.Sleep(800 * time.Millisecond)
		proxy.SetBlackhole(false)
	}()

	const jobs = 24
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	results := make([]RunResult, jobs)
	var wg sync.WaitGroup
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = c.Run(ctx, testSpec(uint64(1000+i)))
		}(i)
	}
	wg.Wait()

	// Client-side ledger: one terminal outcome per job, all succeeded
	// (the specs are valid and small; chaos may only delay them), each
	// with a non-empty result body and a known job ID.
	ids := make(map[string]int)
	for i, r := range results {
		if r.Outcome != OutcomeSucceeded {
			t.Errorf("job %d: outcome = %s (err=%v), want succeeded", i, r.Outcome, r.Err)
			continue
		}
		if r.JobID == "" {
			t.Errorf("job %d: succeeded without a job ID", i)
		}
		if len(r.Data) == 0 {
			t.Errorf("job %d: succeeded with empty result body", i)
		}
		ids[r.JobID]++
	}
	for id, n := range ids {
		if n > 1 {
			t.Errorf("job ID %s claimed by %d runs: distinct specs must map to distinct jobs", id, n)
		}
	}

	// Server-side ledger, scraped straight from the server (not through
	// the proxy — the ground truth must not itself cross the chaotic
	// wire). Wait for in-flight work to settle first: a client may have
	// fetched its result marginally before the finished counter ticked.
	var snap map[string]float64
	settled := func() bool {
		snap = srv.Registry().Snapshot()
		finished := snap[`dnasimd_jobs_finished_total{outcome="done"}`] +
			snap[`dnasimd_jobs_finished_total{outcome="failed"}`] +
			snap[`dnasimd_jobs_finished_total{outcome="canceled"}`] +
			snap[`dnasimd_jobs_finished_total{outcome="checkpointed"}`]
		return snap["dnasimd_queue_depth"] == 0 &&
			snap["dnasimd_jobs_running"] == 0 &&
			finished == snap["dnasimd_jobs_submitted_total"]
	}
	deadline := time.Now().Add(10 * time.Second)
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !settled() {
		t.Fatalf("server never settled: snapshot %v", snap)
	}

	submitted := snap["dnasimd_jobs_submitted_total"]
	if int(submitted) != len(ids) {
		t.Errorf("server admitted %.0f jobs but clients hold %d distinct IDs: work was %s",
			submitted, len(ids),
			map[bool]string{true: "duplicated", false: "lost"}[int(submitted) > len(ids)])
	}
	if done := snap[`dnasimd_jobs_finished_total{outcome="done"}`]; int(done) != len(ids) {
		t.Errorf("server finished %.0f jobs done, want %d", done, len(ids))
	}

	// The drill is only meaningful if chaos actually fired.
	st := proxy.Stats()
	t.Logf("chaos stats: %v", st)
	t.Logf("server: submitted=%.0f replays=%.0f shed_full=%.0f",
		submitted, snap["dnasimd_jobs_idempotent_replays_total"],
		snap[`dnasimd_jobs_shed_total{reason="queue_full"}`])
	if st.Reset == 0 || st.SlowLoris == 0 || st.Blackhole == 0 {
		t.Errorf("drill ran without exercising all headline faults: %v", st)
	}
}
