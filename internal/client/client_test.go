package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnastore/internal/server"
)

// newTestClient wires a Client to ts with fast, deterministic timings and
// a sleep recorder instead of real waits.
func newTestClient(ts *httptest.Server, mut func(*Config)) (*Client, *sleepLog) {
	log := &sleepLog{}
	cfg := Config{
		BaseURL:      ts.URL,
		MaxAttempts:  4,
		BaseBackoff:  10 * time.Millisecond,
		MaxBackoff:   80 * time.Millisecond,
		PollInterval: time.Millisecond,
		Seed:         42,
		sleep:        log.sleep,
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg), log
}

// sleepLog records requested waits without actually waiting (beyond a
// scheduler yield), keeping retry tests fast and assertable.
type sleepLog struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (l *sleepLog) sleep(ctx context.Context, d time.Duration) error {
	l.mu.Lock()
	l.waits = append(l.waits, d)
	l.mu.Unlock()
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

func (l *sleepLog) all() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.waits...)
}

func testSpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Kind: server.KindSimulate,
		Simulate: &server.SimulateSpec{
			NumRefs: 4, RefLen: 30, Seed: seed,
			Sub: 0.01, Ins: 0.005, Del: 0.02, Coverage: 2,
		},
	}
}

// TestSubmitHonorsRetryAfter: a shed submit must wait at least the
// server's Retry-After delta-seconds before retrying, not the (much
// shorter) jittered exponential the client would pick on its own.
func TestSubmitHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		json.NewEncoder(w).Encode(server.Status{ID: "j000001", Kind: server.KindSimulate, State: server.StateQueued})
	}))
	defer ts.Close()
	c, log := newTestClient(ts, nil)

	st, replayed, err := c.Submit(context.Background(), testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000001" || replayed {
		t.Fatalf("submit = %+v replayed=%v", st, replayed)
	}
	waits := log.all()
	if len(waits) != 1 {
		t.Fatalf("sleeps = %v, want exactly one backoff", waits)
	}
	if waits[0] < 3*time.Second {
		t.Errorf("backoff %v shorter than the Retry-After floor of 3s", waits[0])
	}
	if waits[0] > 3*time.Second+80*time.Millisecond {
		t.Errorf("backoff %v far above the hint: jitter should be bounded by BaseBackoff", waits[0])
	}
}

// TestBackoffFullJitterEnvelope: without a Retry-After hint the waits must
// stay inside the capped exponential envelope and actually vary (full
// jitter, not fixed steps).
func TestBackoffFullJitterEnvelope(t *testing.T) {
	c := New(Config{BaseURL: "http://unused", BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 7})
	seen := map[time.Duration]bool{}
	for attempt := 0; attempt < 6; attempt++ {
		env := 10 * time.Millisecond << uint(attempt)
		if env > 80*time.Millisecond {
			env = 80 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			w := c.backoffWait(attempt, -1)
			if w < 0 || w > env {
				t.Fatalf("attempt %d: wait %v outside [0, %v]", attempt, w, env)
			}
			seen[w] = true
		}
	}
	if len(seen) < 20 {
		t.Errorf("only %d distinct waits over 300 draws: jitter looks degenerate", len(seen))
	}
}

// TestSubmitRetriesCorruptedJSON: a mangled response body is a transport
// fault — retry it, never act on garbage.
func TestSubmitRetriesCorruptedJSON(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"j0000`) // truncated JSON
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.Status{ID: "j000002", State: server.StateQueued})
	}))
	defer ts.Close()
	c, _ := newTestClient(ts, nil)

	st, _, err := c.Submit(context.Background(), testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000002" {
		t.Fatalf("id = %q", st.ID)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("calls = %d, want 2", n)
	}
}

// TestSubmitSendsIdempotencyKeyOnEveryAttempt: retries must carry the same
// Idempotency-Key as the first attempt — that is what makes them safe —
// and the key must derive from the spec fingerprint.
func TestSubmitSendsIdempotencyKeyOnEveryAttempt(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get(server.IdempotencyKeyHeader))
		mu.Unlock()
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set(server.IdempotencyReplayedHeader, "true")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(server.Status{ID: "j000003", State: server.StateRunning})
	}))
	defer ts.Close()
	c, _ := newTestClient(ts, nil)

	spec := testSpec(3)
	st, replayed, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed {
		t.Error("replay header not surfaced")
	}
	if st.ID != "j000003" {
		t.Fatalf("id = %q", st.ID)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("idempotency keys across attempts = %v, want two identical non-empty keys", keys)
	}
	if want := fmt.Sprintf("%016x", spec.Fingerprint()); keys[0] != want {
		t.Errorf("key = %q, want fingerprint %q", keys[0], want)
	}
}

// TestRunClassification settles each server behaviour to its outcome.
func TestRunClassification(t *testing.T) {
	mkTS := func(h http.HandlerFunc) *httptest.Server { return httptest.NewServer(h) }
	doneStatus := server.Status{ID: "j1", Kind: server.KindSimulate, State: server.StateDone}

	t.Run("succeeded", func(t *testing.T) {
		ts := mkTS(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodPost:
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateQueued})
			case strings.HasSuffix(r.URL.Path, "/result"):
				w.Write([]byte("payload"))
			default:
				json.NewEncoder(w).Encode(doneStatus)
			}
		})
		defer ts.Close()
		c, _ := newTestClient(ts, nil)
		res := c.Run(context.Background(), testSpec(4))
		if res.Outcome != OutcomeSucceeded || string(res.Data) != "payload" || res.Err != nil {
			t.Fatalf("res = %+v", res)
		}
	})

	t.Run("shed-gave-up", func(t *testing.T) {
		ts := mkTS(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"queue full"}`)
		})
		defer ts.Close()
		c, _ := newTestClient(ts, nil)
		res := c.Run(context.Background(), testSpec(5))
		if res.Outcome != OutcomeShedGaveUp || res.Err == nil {
			t.Fatalf("res = %+v", res)
		}
	})

	t.Run("server-error", func(t *testing.T) {
		ts := mkTS(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateQueued})
				return
			}
			json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateFailed, Error: "3 attempts exhausted"})
		})
		defer ts.Close()
		c, _ := newTestClient(ts, nil)
		res := c.Run(context.Background(), testSpec(6))
		if res.Outcome != OutcomeServerError {
			t.Fatalf("res = %+v", res)
		}
	})

	t.Run("deadline-from-job-failure", func(t *testing.T) {
		ts := mkTS(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateQueued})
				return
			}
			json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateFailed, Error: "server: job deadline exceeded"})
		})
		defer ts.Close()
		c, _ := newTestClient(ts, nil)
		res := c.Run(context.Background(), testSpec(7))
		if res.Outcome != OutcomeDeadline {
			t.Fatalf("res = %+v", res)
		}
	})

	t.Run("deadline-from-504", func(t *testing.T) {
		ts := mkTS(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusGatewayTimeout)
			fmt.Fprint(w, `{"error":"deadline expired"}`)
		})
		defer ts.Close()
		c, _ := newTestClient(ts, nil)
		res := c.Run(context.Background(), testSpec(8))
		if res.Outcome != OutcomeDeadline {
			t.Fatalf("res = %+v", res)
		}
	})

	t.Run("canceled-context", func(t *testing.T) {
		ts := mkTS(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateQueued})
				return
			}
			json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateRunning})
		})
		defer ts.Close()
		c, _ := newTestClient(ts, nil)
		ctx, cancel := context.WithCancel(context.Background())
		go func() { time.Sleep(50 * time.Millisecond); cancel() }()
		res := c.Run(ctx, testSpec(9))
		if res.Outcome != OutcomeCanceled {
			t.Fatalf("res = %+v", res)
		}
	})

	t.Run("canceled-job", func(t *testing.T) {
		ts := mkTS(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.WriteHeader(http.StatusAccepted)
				json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateQueued})
				return
			}
			json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateCanceled, Error: "canceled by client"})
		})
		defer ts.Close()
		c, _ := newTestClient(ts, nil)
		res := c.Run(context.Background(), testSpec(10))
		if res.Outcome != OutcomeCanceled {
			t.Fatalf("res = %+v", res)
		}
	})
}

// TestRunNeverHangsOnDeadDial: a connect-refused target settles to a
// terminal outcome within the retry budget instead of hanging.
func TestRunNeverHangsOnDeadDial(t *testing.T) {
	// Reserve a port and close it: connections are refused.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	c, _ := newTestClient(&httptest.Server{URL: url}, nil)

	done := make(chan RunResult, 1)
	go func() { done <- c.Run(context.Background(), testSpec(11)) }()
	select {
	case res := <-done:
		if res.Outcome != OutcomeServerError {
			t.Fatalf("res = %+v, want server-error", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung on a dead target")
	}
}

// TestDeadlinePropagatesIntoSpec: a context deadline must ride the
// submitted spec as deadline_unix_ms so the server can fast-fail expired
// work.
func TestDeadlinePropagatesIntoSpec(t *testing.T) {
	var got atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var spec server.JobSpec
		json.NewDecoder(r.Body).Decode(&spec)
		got.Store(spec.DeadlineUnixMS)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateQueued})
	}))
	defer ts.Close()
	c, _ := newTestClient(ts, nil)

	ddl := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), ddl)
	defer cancel()
	if _, _, err := c.Submit(ctx, testSpec(12)); err != nil {
		t.Fatal(err)
	}
	if got.Load() != ddl.UnixMilli() {
		t.Fatalf("deadline_unix_ms = %d, want %d", got.Load(), ddl.UnixMilli())
	}
}

// TestResultNotReady surfaces 409 as errJobNotReady rather than an error
// worth retrying or a terminal failure.
func TestResultNotReady(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Job-State", "running")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(server.Status{ID: "j1", State: server.StateRunning})
	}))
	defer ts.Close()
	c, _ := newTestClient(ts, nil)

	_, err := c.Result(context.Background(), "j1")
	if !errors.Is(err, errJobNotReady) {
		t.Fatalf("err = %v, want errJobNotReady", err)
	}
}

// TestPermanent5xxNotRetried: 501 and 505 describe the request, not the
// server's moment — the client must settle them in one attempt instead of
// burning the whole backoff budget to arrive at the same answer.
func TestPermanent5xxNotRetried(t *testing.T) {
	for _, code := range []int{http.StatusNotImplemented, http.StatusHTTPVersionNotSupported} {
		t.Run(fmt.Sprint(code), func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.WriteHeader(code)
			}))
			defer ts.Close()
			c, log := newTestClient(ts, nil)

			res := c.Run(context.Background(), testSpec(uint64(code)))
			if res.Outcome != OutcomeServerError {
				t.Fatalf("outcome = %v, want server-error", res.Outcome)
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("calls = %d, want exactly 1 (no retries)", n)
			}
			if waits := log.all(); len(waits) != 0 {
				t.Errorf("backoffs = %v, want none", waits)
			}
		})
	}
}

// TestReadySingleExchange: the health probe must report the server's answer
// from exactly one exchange — a probe that retries itself healthy defeats
// the point of probing.
func TestReadySingleExchange(t *testing.T) {
	var calls atomic.Int64
	ready := &atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"status":"draining"}`)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()
	c, log := newTestClient(ts, nil)

	if err := c.Ready(context.Background()); err == nil {
		t.Fatal("Ready() = nil against a draining server")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("calls = %d, want 1 (a probe never retries)", n)
	}
	if waits := log.all(); len(waits) != 0 {
		t.Fatalf("probe slept %v, want no backoff", waits)
	}
	ready.Store(true)
	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("Ready() against a serving server: %v", err)
	}
}

// TestChecksumMismatchRetries: a framing-valid response whose body hash
// disagrees with the server's X-Dnasimd-Body-Fnv64a header is corrupted in
// flight — the client must retry it, not act on the bytes.
func TestChecksumMismatchRetries(t *testing.T) {
	var calls atomic.Int64
	body := []byte(`{"id":"job-1","kind":"simulate","state":"running"}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Valid JSON, valid framing, wrong checksum: flipped in flight.
			w.Header().Set(server.BodyChecksumHeader, "deadbeefdeadbeef")
		} else {
			w.Header().Set(server.BodyChecksumHeader, server.BodyChecksum(body))
		}
		w.Write(body)
	}))
	defer ts.Close()

	c, _ := newTestClient(ts, nil)
	st, err := c.Status(context.Background(), "job-1")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("calls = %d, want 2 (mismatch retried exactly once)", got)
	}
	if st.ID != "job-1" {
		t.Errorf("status ID = %q from the clean retry, want job-1", st.ID)
	}
}

// TestRunSurvivesCoordinatorRestart: a coordinator restart presents to a
// mid-poll client as a short window of 503s (draining, then recovering)
// on every endpoint. Run must ride the window out — honoring the server's
// Retry-After floor — and then finish against the restarted process under
// the same job ID, never surfacing the restart to its caller.
func TestRunSurvivesCoordinatorRestart(t *testing.T) {
	var statusCalls atomic.Int64
	payload := []byte("merged dataset bytes")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(server.Status{ID: "f000001", Kind: server.KindSimulate, State: server.StateRunning})
		case r.URL.Path == "/v1/jobs/f000001":
			switch statusCalls.Add(1) {
			case 1, 2:
				// The restart window: old process draining, new one
				// recovering its ledger. Both shed with a hint.
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":"fleet: not accepting jobs: recovering"}`)
			case 3:
				// Recovered: the re-adopted job answers under its old ID.
				json.NewEncoder(w).Encode(server.Status{ID: "f000001", Kind: server.KindSimulate, State: server.StateRunning})
			default:
				json.NewEncoder(w).Encode(server.Status{ID: "f000001", Kind: server.KindSimulate, State: server.StateDone})
			}
		case r.URL.Path == "/v1/jobs/f000001/result":
			w.Write(payload)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	c, log := newTestClient(ts, nil)

	res := c.Run(context.Background(), testSpec(9))
	if res.Outcome != OutcomeSucceeded {
		t.Fatalf("run settled %s across the restart window: %v", res.Outcome, res.Err)
	}
	if string(res.Data) != string(payload) {
		t.Fatalf("data = %q, want %q", res.Data, payload)
	}
	if res.Submits != 1 {
		t.Errorf("submits = %d, want 1 — the job must not be resubmitted, only re-polled", res.Submits)
	}
	hinted := 0
	for _, wait := range log.all() {
		if wait >= time.Second {
			hinted++
		}
	}
	if hinted < 2 {
		t.Errorf("only %d waits honored the 1s Retry-After floor, want one per shed response", hinted)
	}
}
