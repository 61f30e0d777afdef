package server

import (
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// retryAfterFixture builds just enough of a Server to exercise retryAfter
// without spinning up an executor: backlog jobs sit in the queued tally,
// and a draining phase starts its drain window now.
func retryAfterFixture(est, grace time.Duration, workers, backlog int, phase Phase) *Server {
	s := &Server{
		cfg:   Config{EstimatedJobTime: est, Workers: workers, DrainGrace: grace},
		phase: phase,
	}
	if phase != PhaseServing {
		s.drainStarted = time.Now()
	}
	s.counts.queued.Store(int64(backlog))
	return s
}

// TestRetryAfterIsValidDeltaSeconds covers the RFC 9110 contract: the value
// is a positive integer number of seconds — a sub-second or zero estimate
// must not surface as 0 (which tells clients "retry immediately", defeating
// the shed), and an absurd estimate or drain window is capped rather than
// converted through an out-of-range float→int. The same clamp serves a
// single node and a fleet coordinator, in every phase.
func TestRetryAfterIsValidDeltaSeconds(t *testing.T) {
	cases := []struct {
		name    string
		phase   Phase
		reason  string
		est     time.Duration
		grace   time.Duration
		workers int
		backlog int
		want    int
	}{
		{"sub-second estimate clamps to 1", PhaseServing, shedQueueFull, 10 * time.Millisecond, 0, 4, 0, 1},
		{"zero backlog sub-second", PhaseServing, shedQueueFull, 900 * time.Millisecond, 0, 1, 0, 1},
		{"fractional rounds up", PhaseServing, shedQueueFull, 1250 * time.Millisecond, 0, 1, 0, 2},
		{"backlog scales estimate", PhaseServing, shedQueueFull, 2 * time.Second, 0, 2, 3, 4},
		{"zero workers treated as one", PhaseServing, shedQueueFull, time.Second, 0, 0, 1, 2},
		{"absurd estimate caps at one hour", PhaseServing, shedQueueFull, 1 << 62, 0, 1, 8, maxRetryAfterSeconds},
		{"unready executor floors at 1", PhaseServing, "", 2 * time.Second, 0, 1, 8, 1},
		{"draining hint is the drain window", PhaseDraining, shedDraining, time.Hour, 5 * time.Second, 1, 8, 5},
		{"oversized drain window caps at one hour", PhaseDraining, shedDraining, 0, 48 * time.Hour, 1, 0, maxRetryAfterSeconds},
		{"expired drain window floors at 1", PhaseStopped, shedDraining, 0, -time.Hour, 1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := retryAfterFixture(tc.est, tc.grace, tc.workers, tc.backlog, tc.phase)
			got := s.retryAfter(tc.reason)
			if got != tc.want {
				t.Fatalf("retryAfter(%q) = %d, want %d", tc.reason, got, tc.want)
			}
			if got < 1 {
				t.Fatalf("retryAfter(%q) = %d, violates delta-seconds >= 1", tc.reason, got)
			}
		})
	}
}

// TestShedHeaderParsesAsInteger asserts the header a shed client actually
// sees: present, parseable with strconv.Atoi (no fractional seconds, no
// HTTP-date), and at least 1 — even when EstimatedJobTime is far below a
// second.
func TestShedHeaderParsesAsInteger(t *testing.T) {
	s := New(Config{
		Workers:          1,
		QueueCapacity:    1,
		EstimatedJobTime: 5 * time.Millisecond,
		StallAfter:       -1,
	})
	defer s.Drain()

	w := httptest.NewRecorder()
	s.shed(w, shedQueueFull)

	if w.Code != 503 {
		t.Fatalf("shed status = %d, want 503", w.Code)
	}
	h := w.Header().Get("Retry-After")
	if h == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	sec, err := strconv.Atoi(h)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", h, err)
	}
	if sec < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", sec)
	}
	if got := s.Registry().Snapshot()[`dnasimd_jobs_shed_total{reason="queue_full"}`]; got != 1 {
		t.Fatalf("shed counter = %v, want 1", got)
	}
}
