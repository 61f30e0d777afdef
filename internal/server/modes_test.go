package server_test

// The same jobs front-end serves a single node and a fleet coordinator.
// These tests run one contract against both modes: health phases,
// admission order under drain, and the job-lifecycle metric surface.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/fleet"
	"dnastore/internal/obs"
	"dnastore/internal/server"
)

// service is what both modes expose: the HTTP API plus the front-end's
// lifecycle and metrics.
type service interface {
	http.Handler
	Drain()
	Phase() server.Phase
	Registry() *obs.Registry
}

// eachMode runs f against a single node and against a coordinator over
// one worker node, each behind a real socket.
func eachMode(t *testing.T, f func(t *testing.T, svc service, url string)) {
	newNode := func(t *testing.T) *server.Server {
		s := server.New(server.Config{Workers: 2, StallAfter: -1, DrainGrace: 2 * time.Second})
		t.Cleanup(s.Drain)
		return s
	}
	t.Run("single", func(t *testing.T) {
		s := newNode(t)
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		f(t, s, ts.URL)
	})
	t.Run("fleet", func(t *testing.T) {
		worker := httptest.NewServer(newNode(t))
		t.Cleanup(worker.Close)
		coord, err := fleet.New(fleet.Config{
			Nodes:         []fleet.NodeConfig{{Name: "w1", BaseURL: worker.URL}},
			ProbeInterval: -1,
			DrainGrace:    2 * time.Second,
			Client:        client.Config{PollInterval: 5 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		t.Cleanup(coord.Drain)
		ts := httptest.NewServer(coord)
		t.Cleanup(ts.Close)
		f(t, coord, ts.URL)
	})
}

func smallSpec(seed uint64) server.JobSpec {
	return server.JobSpec{Kind: server.KindSimulate, Simulate: &server.SimulateSpec{
		NumRefs: 8, RefLen: 40, Seed: seed, Sub: 0.01, Coverage: 2,
	}}
}

// submit posts a spec under an optional Idempotency-Key.
func submit(t *testing.T, url, key string, spec server.JobSpec) (*http.Response, server.Status) {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest("POST", url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(server.IdempotencyKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	json.NewDecoder(resp.Body).Decode(&st)
	return resp, st
}

func TestHealthAndReadyReflectPhases(t *testing.T) {
	eachMode(t, func(t *testing.T, svc service, url string) {
		check := func(path string, want int) {
			t.Helper()
			r, err := http.Get(url + path)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != want {
				t.Errorf("%s while %s = %d, want %d", path, svc.Phase(), r.StatusCode, want)
			}
		}
		check("/healthz", http.StatusOK)
		check("/readyz", http.StatusOK)

		svc.Drain()
		check("/healthz", http.StatusServiceUnavailable) // stopped
		check("/readyz", http.StatusServiceUnavailable)

		// Submissions after drain are shed with Retry-After.
		resp, _ := submit(t, url, "", smallSpec(1))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("post-drain submit = %d, want 503", resp.StatusCode)
		}
		if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
			t.Errorf("post-drain 503 Retry-After = %q, want an integer", resp.Header.Get("Retry-After"))
		}
	})
}

// TestIdempotentReplayAfterDrain: a client that lost its 202 and retries
// the submit after a drain gets its job back (200, replayed, original ID),
// not a 503 — replay is checked before the phase, and counted once.
func TestIdempotentReplayAfterDrain(t *testing.T) {
	eachMode(t, func(t *testing.T, svc service, url string) {
		resp, st := submit(t, url, "lost-202", smallSpec(2))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit = %d, want 202", resp.StatusCode)
		}
		cli := client.New(client.Config{BaseURL: url, PollInterval: 5 * time.Millisecond})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for !st.State.Terminal() {
			time.Sleep(5 * time.Millisecond)
			var err error
			if st, err = cli.Status(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
		}
		svc.Drain()

		resp, again := submit(t, url, "lost-202", smallSpec(2))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("same-key resubmit after drain = %d, want 200", resp.StatusCode)
		}
		if resp.Header.Get(server.IdempotencyReplayedHeader) != "true" {
			t.Error("resubmit after drain missing the replay header")
		}
		if again.ID != st.ID {
			t.Errorf("replayed ID = %s, want original %s", again.ID, st.ID)
		}
		snap := svc.Registry().Snapshot()
		if got := snap["dnasimd_jobs_idempotent_replays_total"]; got != 1 {
			t.Errorf("replay counter = %v, want 1", got)
		}
		for series, want := range map[string]float64{
			"dnasimd_jobs_submitted_total": 1,
			"dnasimd_jobs_tracked":         1,
			"dnasimd_queue_depth":          0,
			"dnasimd_jobs_running":         0,
		} {
			if got := snap[series]; got != want {
				t.Errorf("%s = %v, want %v", series, got, want)
			}
		}
	})
}

// lifecycleSeries are the job-lifecycle series every mode must export,
// with every label value dnaload reconciles.
var lifecycleSeries = []string{
	"dnasimd_jobs_submitted_total",
	`dnasimd_jobs_finished_total{outcome="done"}`,
	`dnasimd_jobs_finished_total{outcome="failed"}`,
	`dnasimd_jobs_finished_total{outcome="canceled"}`,
	`dnasimd_jobs_finished_total{outcome="checkpointed"}`,
	`dnasimd_jobs_shed_total{reason="queue_full"}`,
	`dnasimd_jobs_shed_total{reason="draining"}`,
	`dnasimd_jobs_shed_total{reason="recovering"}`,
	`dnasimd_jobs_shed_total{reason="ledger_error"}`,
	`dnasimd_jobs_shed_total{reason="deadline_expired"}`,
	"dnasimd_jobs_idempotent_replays_total",
	`dnasimd_job_seconds_count{kind="simulate"}`,
	`dnasimd_job_seconds_count{kind="retrieve"}`,
	"dnasimd_queue_depth",
	"dnasimd_jobs_running",
	"dnasimd_jobs_tracked",
}

// TestJobMetricsSameInBothModes: a single node and a coordinator export
// the same job-lifecycle series — names and label values — so dashboards
// and dnaload's reconciliation read either without knowing which it got.
func TestJobMetricsSameInBothModes(t *testing.T) {
	lifecycle := func(name string) bool {
		for _, p := range []string{"dnasimd_jobs_", "dnasimd_job_seconds", "dnasimd_queue_depth"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	sets := map[string][]string{}
	eachMode(t, func(t *testing.T, svc service, url string) {
		snap := svc.Registry().Snapshot()
		for _, name := range lifecycleSeries {
			if _, ok := snap[name]; !ok {
				t.Errorf("missing series %s", name)
			}
		}
		var names []string
		for name := range snap {
			if lifecycle(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		sets[t.Name()] = names
	})
	single, fleet := sets[t.Name()+"/single"], sets[t.Name()+"/fleet"]
	if strings.Join(single, "\n") != strings.Join(fleet, "\n") {
		t.Errorf("job series differ by mode:\nsingle: %v\nfleet:  %v", single, fleet)
	}
}
