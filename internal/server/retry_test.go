package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/faults"
)

// holdRequeueHandler is a slog.Handler that records messages in the order
// they are written, holding a "job requeued" record back until a "job
// finished" record arrives or two seconds pass.
type holdRequeueHandler struct {
	finished chan struct{}
	once     sync.Once
	mu       sync.Mutex
	msgs     []string
}

func (h *holdRequeueHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *holdRequeueHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *holdRequeueHandler) WithGroup(string) slog.Handler            { return h }

func (h *holdRequeueHandler) Handle(_ context.Context, r slog.Record) error {
	switch r.Message {
	case "job requeued":
		select {
		case <-h.finished:
		case <-time.After(2 * time.Second):
		}
	case "job finished":
		h.once.Do(func() { close(h.finished) })
	}
	h.mu.Lock()
	h.msgs = append(h.msgs, r.Message)
	h.mu.Unlock()
	return nil
}

func (h *holdRequeueHandler) messages() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.msgs)
}

// TestRequeueLoggedBeforeRetryRuns: the first attempt panics once and is
// requeued, and the log handler stalls the requeue record. If the job
// could run again before that record is written, the second worker would
// finish the retry inside the stall and "job finished" would come first.
func TestRequeueLoggedBeforeRetryRuns(t *testing.T) {
	var budget atomic.Int64
	budget.Store(1)
	h := &holdRequeueHandler{finished: make(chan struct{})}
	s := testServer(t, Config{
		Workers: 2,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.FlakyPanic{Base: ch, Remaining: &budget}, cov
		},
		Logger: slog.New(h),
	})
	j, err := s.Submit(simSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	if st := awaitTerminal(t, j, 15*time.Second); st.State != StateDone || st.Attempts != 2 {
		t.Fatalf("state %v after %d attempts (%s), want done after 2", st.State, st.Attempts, st.Error)
	}
	waitFor(t, 5*time.Second, func() bool {
		msgs := h.messages()
		return slices.Contains(msgs, "job requeued") && slices.Contains(msgs, "job finished")
	})
	msgs := h.messages()
	if slices.Index(msgs, "job requeued") > slices.Index(msgs, "job finished") {
		t.Errorf("the retry's outcome was logged before its requeue: %q", msgs)
	}
}

// TestRefusedRequeueLogsNothing: when drain has closed the queue, a retry
// cancels the job and writes no requeue record.
func TestRefusedRequeueLogsNothing(t *testing.T) {
	var logs lockedBuffer
	s := testServer(t, Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	e := local(s)
	e.queue.close()
	j := newJob("jrefused", simSpec(1), &s.counts)
	if _, ok := j.Begin(func(error) {}); !ok {
		t.Fatal("Begin refused a queued job")
	}
	e.retryOrFail(j, errors.New("transient"))
	if st := j.State(); st != StateCanceled {
		t.Errorf("state = %v, want canceled", st)
	}
	if strings.Contains(logs.String(), "job requeued") {
		t.Errorf("refused requeue was logged:\n%s", logs.String())
	}
}

// TestEmptyReadFailsOnFirstAttempt: deleting half of every base of very
// short strands makes an empty read, which the dataset text cannot carry.
// A retry would meet the same read, so the job fails on attempt 1.
func TestEmptyReadFailsOnFirstAttempt(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, st := postJob(t, ts, JobSpec{Kind: KindSimulate, Simulate: &SimulateSpec{
		Refs: []string{"AC", "GT", "TTA"}, Seed: 1, Del: 0.5, Coverage: 6,
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	j, _ := s.Job(st.ID)
	awaitTerminal(t, j, 10*time.Second)
	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var cur Status
	err = json.NewDecoder(r.Body).Decode(&cur)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cur.State != StateFailed || cur.Attempts != 1 {
		t.Errorf("job ended %v after %d attempts, want failed after 1", cur.State, cur.Attempts)
	}
	if !strings.Contains(cur.Error, "empty read") {
		t.Errorf("error = %q, want the empty-read refusal", cur.Error)
	}
}

// doneAtFinishHandler is a slog.Handler that notes, at each "job finished"
// record, whether that job's Done channel was already closed.
type doneAtFinishHandler struct {
	srv    atomic.Pointer[Server]
	mu     sync.Mutex
	closed map[string]bool
}

func (h *doneAtFinishHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *doneAtFinishHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *doneAtFinishHandler) WithGroup(string) slog.Handler            { return h }

func (h *doneAtFinishHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "job finished" {
		return nil
	}
	var id string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "job" {
			id = a.Value.String()
		}
		return id == ""
	})
	j, ok := h.srv.Load().Job(id)
	if !ok {
		return nil
	}
	closed := false
	select {
	case <-j.Done():
		closed = true
	default:
	}
	h.mu.Lock()
	h.closed[id] = closed
	h.mu.Unlock()
	return nil
}

// TestDoneClosesAfterFinishLogged: a job is counted and logged before its
// Done channel closes, both when a worker finishes it and when a queued
// job is canceled, so a waiter woken by Done never scrapes it uncounted.
func TestDoneClosesAfterFinishLogged(t *testing.T) {
	h := &doneAtFinishHandler{closed: make(map[string]bool)}
	s := testServer(t, Config{
		Workers: 1,
		WrapSimulation: func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
			return faults.SlowChannel{Base: ch, Delay: 2 * time.Millisecond}, cov
		},
		Logger: slog.New(h),
	})
	h.srv.Store(s)
	running, err := s.Submit(simSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return running.State() == StateRunning })
	queued, err := s.Submit(simSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Cancel(queued.ID); err != nil || st != StateCanceled {
		t.Fatalf("cancel of the queued job = %v, %v; want canceled", st, err)
	}
	awaitTerminal(t, queued, 5*time.Second)
	if st := awaitTerminal(t, running, 30*time.Second); st.State != StateDone {
		t.Fatalf("running job = %v (%s)", st.State, st.Error)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range []string{running.ID, queued.ID} {
		closed, logged := h.closed[id]
		if !logged || closed {
			t.Errorf("job %s: finish logged %v, Done already closed at the log %v; want logged with Done open", id, logged, closed)
		}
	}
}
