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
func retryAfterFixture(grace time.Duration, workers, backlog int, phase Phase) *Server {
	s := &Server{
		cfg:   Config{Workers: workers, DrainGrace: grace},
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
// single node and a fleet coordinator, in every phase. A queue_full
// estimate is 2 s (estimatedJobTime) × (backlog+1) ÷ workers.
func TestRetryAfterIsValidDeltaSeconds(t *testing.T) {
	cases := []struct {
		name    string
		phase   Phase
		reason  string
		grace   time.Duration
		workers int
		backlog int
		want    int
	}{
		{"sub-second estimate clamps to 1", PhaseServing, shedQueueFull, 0, 4, 0, 1},
		{"zero backlog sub-second", PhaseServing, shedQueueFull, 0, 3, 0, 1},
		{"fractional rounds up", PhaseServing, shedQueueFull, 0, 4, 2, 2},
		{"backlog scales estimate", PhaseServing, shedQueueFull, 0, 2, 3, 4},
		{"zero workers treated as one", PhaseServing, shedQueueFull, 0, 0, 1, 4},
		{"absurd estimate caps at one hour", PhaseServing, shedQueueFull, 0, 1, 1 << 40, maxRetryAfterSeconds},
		{"unready executor floors at 1", PhaseServing, "", 0, 1, 8, 1},
		{"draining hint is the drain window", PhaseDraining, shedDraining, 5 * time.Second, 1, 8, 5},
		{"oversized drain window caps at one hour", PhaseDraining, shedDraining, 48 * time.Hour, 1, 0, maxRetryAfterSeconds},
		{"expired drain window floors at 1", PhaseStopped, shedDraining, -time.Hour, 1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := retryAfterFixture(tc.grace, tc.workers, tc.backlog, tc.phase)
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
// HTTP-date), and the backlog estimate of an idle one-worker server, 2 s.
func TestShedHeaderParsesAsInteger(t *testing.T) {
	s := New(Config{
		Workers:       1,
		QueueCapacity: 1,
		StallAfter:    -1,
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
	if sec != 2 {
		t.Fatalf("Retry-After = %d, want 2", sec)
	}
	if got := s.Registry().Snapshot()[`dnasimd_jobs_shed_total{reason="queue_full"}`]; got != 1 {
		t.Fatalf("shed counter = %v, want 1", got)
	}
}
