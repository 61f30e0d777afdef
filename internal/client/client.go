// Package client is the resilient dnasimd client: submit / status /
// result / cancel over the server's HTTP API, hardened against the
// failure modes a real network serves up — connection resets, slow or
// truncated responses, corrupted bodies, overload shedding — so callers
// get exactly one terminal answer per logical job and never hang.
//
// The retry discipline, drilled end to end against internal/chaosnet:
//
//   - Capped exponential backoff with full jitter between attempts;
//     a 503's Retry-After delta-seconds, when present, is honored as the
//     floor of the wait (the server's estimate beats the client's guess).
//   - Idempotent resubmission: every submit carries an Idempotency-Key
//     derived from the spec fingerprint, so a retried submit whose first
//     attempt raced a success is answered with the already-admitted job
//     instead of creating a duplicate.
//   - Deadline propagation: the context deadline rides the spec as an
//     absolute deadline_unix_ms, letting the server fast-fail work whose
//     client has already given up; every wait and poll is bounded by the
//     same context.
//   - Terminal classification: Run always settles to exactly one of
//     succeeded / shed-gave-up / server-error / deadline / canceled.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dnastore/internal/server"
)

// Outcome is the terminal classification of one logical job. Exactly one
// outcome is assigned per Run, no matter which mix of network faults,
// sheds and server errors occurred along the way.
type Outcome string

const (
	// OutcomeSucceeded: the job ran to done and its result was fetched.
	OutcomeSucceeded Outcome = "succeeded"
	// OutcomeShedGaveUp: every submit attempt was shed (503) and the
	// retry budget ran out — the server stayed overloaded or draining.
	OutcomeShedGaveUp Outcome = "shed-gave-up"
	// OutcomeServerError: the job failed server-side, or the transport
	// failed in a way retries could not clear.
	OutcomeServerError Outcome = "server-error"
	// OutcomeDeadline: the client's deadline expired — locally, at
	// admission (504), or while the job executed.
	OutcomeDeadline Outcome = "deadline"
	// OutcomeCanceled: the context was canceled (not by deadline) or the
	// job was canceled.
	OutcomeCanceled Outcome = "canceled"
)

// Config parameterises a Client. The zero value plus a BaseURL is usable:
// every other field has a production-shaped default.
type Config struct {
	// BaseURL is the server (or chaos proxy) root, e.g. "http://host:8080".
	BaseURL string
	// HTTPClient, when set, replaces http.DefaultClient (timeouts,
	// transports, test doubles).
	HTTPClient *http.Client
	// MaxAttempts bounds the retries of one HTTP call (default 8).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// with full jitter: attempt n waits uniform(0, min(MaxBackoff,
	// BaseBackoff·2ⁿ)) (defaults 50ms and 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PerCallTimeout bounds each individual HTTP exchange so a slow-loris
	// response cannot pin a call forever (default 15s).
	PerCallTimeout time.Duration
	// PollInterval is the status poll cadence while a job runs (default
	// 100ms).
	PollInterval time.Duration
	// Seed drives the jitter RNG; 0 seeds from the clock. A fixed seed
	// makes a client's backoff schedule reproducible in drills.
	Seed uint64

	// sleep is the interruptible wait, injectable by tests.
	sleep func(ctx context.Context, d time.Duration) error
}

// Client is a resilient dnasimd API client. Safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a Client for the server at cfg.BaseURL.
func New(cfg Config) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.PerCallTimeout <= 0 {
		cfg.PerCallTimeout = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(time.Now().UnixNano())
	}
	if cfg.sleep == nil {
		cfg.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return &Client{
		cfg:  cfg,
		http: cfg.HTTPClient,
		rng:  rand.New(rand.NewSource(int64(cfg.Seed))),
	}
}

// jitter returns uniform(0, d).
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d)))
}

// backoffWait computes the wait before retry attempt (0-based): full
// jitter over the capped exponential envelope, with the server's
// Retry-After (seconds, -1 when absent) as a floor — the server knows its
// backlog better than the client's guess.
func (c *Client) backoffWait(attempt int, retryAfterSec int) time.Duration {
	cap := c.cfg.MaxBackoff
	if e := c.cfg.BaseBackoff << uint(attempt); e > 0 && e < cap {
		cap = e
	}
	wait := c.jitter(cap)
	if retryAfterSec >= 0 {
		// Honor the hint: come back no earlier than the server asked,
		// plus jitter so a shed burst doesn't re-converge in lockstep.
		hinted := time.Duration(retryAfterSec)*time.Second + c.jitter(c.cfg.BaseBackoff)
		if hinted > wait {
			wait = hinted
		}
	}
	return wait
}

// transientError marks an error worth retrying (transport failure, 5xx,
// corrupted or truncated body).
type transientError struct {
	err           error
	shed          bool // a 503 shed — the overload signal
	retryAfterSec int  // parsed Retry-After, -1 when absent
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// permanentError marks an error retries cannot clear (4xx, deadline).
type permanentError struct {
	err      error
	deadline bool
}

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// errJobNotReady is returned by tryResult when the job has no result yet.
var errJobNotReady = errors.New("client: job not done yet")

// parseRetryAfter extracts a delta-seconds Retry-After, -1 when absent or
// malformed.
func parseRetryAfter(resp *http.Response) int {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return -1
	}
	sec, err := strconv.Atoi(h)
	if err != nil || sec < 0 {
		return -1
	}
	return sec
}

// doOnce performs one HTTP exchange under the per-call timeout and decodes
// a JSON body into out (skipped when out is nil, the raw-bytes path
// handles its own read). It classifies failures as transient or permanent.
func (c *Client) doOnce(ctx context.Context, method, path string, hdr http.Header, body []byte, out any) (*http.Response, []byte, error) {
	callCtx, cancel := context.WithTimeout(ctx, c.cfg.PerCallTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(callCtx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, nil, &permanentError{err: err}
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport-level failure: reset, refused, blackholed (per-call
		// timeout), DNS. All transient — unless the caller's own context
		// is the thing that expired.
		if ctx.Err() != nil {
			return nil, nil, &permanentError{err: ctx.Err(), deadline: errors.Is(ctx.Err(), context.DeadlineExceeded)}
		}
		return nil, nil, &transientError{err: err, retryAfterSec: -1}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		// Truncated or reset mid-body.
		if ctx.Err() != nil {
			return nil, nil, &permanentError{err: ctx.Err(), deadline: errors.Is(ctx.Err(), context.DeadlineExceeded)}
		}
		return resp, nil, &transientError{err: fmt.Errorf("client: reading %s %s: %w", method, path, err), retryAfterSec: -1}
	}
	// End-to-end integrity: the server stamps every body with an FNV-64a
	// checksum header. Framing-valid responses whose bytes were flipped in
	// flight (mangled IDs inside parseable JSON, silently corrupted result
	// payloads) are a transport fault to retry, never data to act on.
	if want := resp.Header.Get(server.BodyChecksumHeader); want != "" && want != server.BodyChecksum(raw) {
		return resp, nil, &transientError{
			err:           fmt.Errorf("client: %s %s: body checksum mismatch (got %s bytes, want %s)", method, path, server.BodyChecksum(raw), want),
			retryAfterSec: -1,
		}
	}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return resp, raw, &transientError{
			err:           fmt.Errorf("client: %s %s shed (503): %s", method, path, strings.TrimSpace(string(raw))),
			shed:          true,
			retryAfterSec: parseRetryAfter(resp),
		}
	case resp.StatusCode == http.StatusGatewayTimeout:
		return resp, raw, &permanentError{
			err:      fmt.Errorf("client: %s %s rejected (504): %s", method, path, strings.TrimSpace(string(raw))),
			deadline: true,
		}
	case resp.StatusCode == http.StatusNotImplemented || resp.StatusCode == http.StatusHTTPVersionNotSupported:
		// Not every 5xx is transient: 501 (the server will never implement
		// this method) and 505 (it will never speak this protocol version)
		// describe the request, not the server's moment — retrying burns
		// the whole backoff budget to arrive at the same answer.
		return resp, raw, &permanentError{
			err: fmt.Errorf("client: %s %s: permanent server error %d", method, path, resp.StatusCode),
		}
	case resp.StatusCode >= 500:
		return resp, raw, &transientError{
			err:           fmt.Errorf("client: %s %s: server error %d", method, path, resp.StatusCode),
			retryAfterSec: parseRetryAfter(resp),
		}
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			// A corrupted or mangled JSON body reads as a transport fault:
			// retry, don't act on garbage.
			return resp, raw, &transientError{err: fmt.Errorf("client: decoding %s %s response: %w", method, path, err), retryAfterSec: -1}
		}
	}
	return resp, raw, nil
}

// do runs doOnce under the retry loop: transient errors back off and
// retry within the attempt budget and the context; permanent errors (and
// the budget running out) surface immediately.
func (c *Client) do(ctx context.Context, method, path string, hdr http.Header, body []byte, out any) (*http.Response, []byte, error) {
	var lastErr error
	allShed := true
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		resp, raw, err := c.doOnce(ctx, method, path, hdr, body, out)
		if err == nil {
			return resp, raw, nil
		}
		var te *transientError
		if !errors.As(err, &te) {
			return resp, raw, err
		}
		lastErr = err
		if !te.shed {
			allShed = false
		}
		if attempt == c.cfg.MaxAttempts-1 {
			break
		}
		if serr := c.cfg.sleep(ctx, c.backoffWait(attempt, te.retryAfterSec)); serr != nil {
			return nil, nil, &permanentError{err: serr, deadline: errors.Is(serr, context.DeadlineExceeded)}
		}
	}
	if allShed {
		return nil, nil, &shedExhaustedError{err: lastErr}
	}
	return nil, nil, fmt.Errorf("client: %d attempts exhausted, last: %w", c.cfg.MaxAttempts, lastErr)
}

// shedExhaustedError: every attempt of a call was answered with a 503.
type shedExhaustedError struct{ err error }

func (e *shedExhaustedError) Error() string {
	return fmt.Sprintf("client: retry budget exhausted, every attempt shed: %v", e.err)
}
func (e *shedExhaustedError) Unwrap() error { return e.err }

// Submit submits a job. The context deadline, when set, is propagated
// into the spec as an absolute deadline; the submit is idempotent under
// retry (see SubmitKeyed).
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.Status, bool, error) {
	return c.SubmitKeyed(ctx, "", spec)
}

// SubmitKeyed submits a job under an explicit idempotency key ("" derives
// the key from the spec fingerprint). It returns the admitted (or
// replayed) job status and whether the server answered with an
// already-admitted job.
func (c *Client) SubmitKeyed(ctx context.Context, key string, spec server.JobSpec) (server.Status, bool, error) {
	// The derived key must identify the work, not the caller's time
	// budget: fingerprint the spec before the context deadline is folded
	// in, so two submissions of identical work — a retry after a lost
	// response, or an independent duplicate — land on one job even when
	// their deadlines differ.
	if key == "" {
		key = fmt.Sprintf("%016x", spec.Fingerprint())
	}
	if ddl, ok := ctx.Deadline(); ok && spec.DeadlineUnixMS == 0 {
		spec.DeadlineUnixMS = ddl.UnixMilli()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, false, &permanentError{err: err}
	}
	hdr := http.Header{
		"Content-Type":              []string{"application/json"},
		server.IdempotencyKeyHeader: []string{key},
	}
	var st server.Status
	resp, raw, err := c.do(ctx, http.MethodPost, "/v1/jobs", hdr, body, &st)
	if err != nil {
		return server.Status{}, false, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
		if st.ID == "" {
			return server.Status{}, false, fmt.Errorf("client: submit accepted but snapshot has no job ID")
		}
		return st, resp.Header.Get(server.IdempotencyReplayedHeader) == "true", nil
	default:
		return server.Status{}, false, &permanentError{
			err: fmt.Errorf("client: submit rejected (%d): %s", resp.StatusCode, strings.TrimSpace(string(raw))),
		}
	}
}

// Status fetches a job's current snapshot.
func (c *Client) Status(ctx context.Context, id string) (server.Status, error) {
	var st server.Status
	resp, raw, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil, &st)
	if err != nil {
		return server.Status{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return server.Status{}, &permanentError{
			err: fmt.Errorf("client: status %s: %d %s", id, resp.StatusCode, strings.TrimSpace(string(raw))),
		}
	}
	return st, nil
}

// Result fetches a done job's result bytes. errJobNotReady (wrapped) is
// returned while the job has not finished.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, raw, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, nil, nil)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return raw, nil
	case http.StatusConflict:
		return nil, fmt.Errorf("%w: state %s", errJobNotReady, resp.Header.Get("X-Job-State"))
	default:
		return nil, &permanentError{
			err: fmt.Errorf("client: result %s: %d %s", id, resp.StatusCode, strings.TrimSpace(string(raw))),
		}
	}
}

// Ready reports whether the server is currently admitting jobs: one
// GET /readyz exchange, deliberately without the retry loop — a health
// probe wants the server's answer right now, and a probe that retries
// itself healthy defeats the point of probing.
func (c *Client) Ready(ctx context.Context) error {
	resp, raw, err := c.doOnce(ctx, http.MethodGet, "/readyz", nil, nil, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: not ready (%d): %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return nil
}

// Drainz fetches the server's handoff inventory: the fingerprint-named
// checkpoint journals sitting in its data directory, ready to be resumed
// by a peer on a shared data dir (see server.Drainz).
func (c *Client) Drainz(ctx context.Context) (server.Drainz, error) {
	var dz server.Drainz
	resp, raw, err := c.do(ctx, http.MethodGet, "/drainz", nil, nil, &dz)
	if err != nil {
		return server.Drainz{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return server.Drainz{}, &permanentError{
			err: fmt.Errorf("client: drainz: %d %s", resp.StatusCode, strings.TrimSpace(string(raw))),
		}
	}
	return dz, nil
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, raw, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return &permanentError{
			err: fmt.Errorf("client: cancel %s: %d %s", id, resp.StatusCode, strings.TrimSpace(string(raw))),
		}
	}
	return nil
}

// RunResult is the settled fate of one logical job driven by Run.
type RunResult struct {
	// Outcome is the terminal classification; exactly one per Run.
	Outcome Outcome
	// JobID is the server-side job handle ("" when admission never
	// succeeded).
	JobID string
	// Status is the last job snapshot observed.
	Status server.Status
	// Data holds the result bytes when Outcome is OutcomeSucceeded.
	Data []byte
	// Submits counts successful submit exchanges (resubmissions after a
	// checkpointed park included); Replays counts those answered
	// idempotently with an existing job.
	Submits int
	Replays int
	// Err carries the terminal error detail for non-succeeded outcomes.
	Err error
}

// classify maps a settled error to its outcome.
func classify(err error) Outcome {
	var pe *permanentError
	switch {
	case errors.As(err, new(*shedExhaustedError)):
		return OutcomeShedGaveUp
	case errors.As(err, &pe) && pe.deadline:
		return OutcomeDeadline
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeDeadline
	case errors.Is(err, context.Canceled):
		return OutcomeCanceled
	default:
		return OutcomeServerError
	}
}

// Run drives one logical job to a terminal outcome: submit (idempotent
// under retry), poll status, fetch the result, and classify. A job parked
// checkpointed by a drain is resubmitted — the journal makes that a
// resume, not a restart. Run never hangs: every exchange and every wait
// is bounded by ctx and the per-call timeout.
func (c *Client) Run(ctx context.Context, spec server.JobSpec) RunResult {
	res := RunResult{}
	for {
		st, replayed, err := c.Submit(ctx, spec)
		if err != nil {
			res.Outcome = classify(err)
			res.Err = err
			return res
		}
		res.Submits++
		if replayed {
			res.Replays++
		}
		res.JobID = st.ID
		res.Status = st

		st, err = c.awaitTerminal(ctx, st)
		res.Status = st
		if err != nil {
			res.Outcome = classify(err)
			res.Err = err
			return res
		}

		switch st.State {
		case server.StateDone:
			data, err := c.Result(ctx, st.ID)
			if err != nil {
				res.Outcome = classify(err)
				res.Err = err
				return res
			}
			res.Outcome = OutcomeSucceeded
			res.Data = data
			return res
		case server.StateCanceled:
			res.Outcome = OutcomeCanceled
			res.Err = fmt.Errorf("client: job %s canceled: %s", st.ID, st.Error)
			return res
		case server.StateFailed:
			res.Err = fmt.Errorf("client: job %s failed: %s", st.ID, st.Error)
			if strings.Contains(st.Error, "deadline") {
				res.Outcome = OutcomeDeadline
			} else {
				res.Outcome = OutcomeServerError
			}
			return res
		case server.StateCheckpointed:
			// Parked resumable by a drain: resubmit the identical spec —
			// the fingerprint-named journal turns the retry into a resume.
			if err := c.cfg.sleep(ctx, c.backoffWait(res.Submits, -1)); err != nil {
				res.Outcome = classify(&permanentError{err: err, deadline: errors.Is(err, context.DeadlineExceeded)})
				res.Err = err
				return res
			}
			continue
		default:
			res.Outcome = OutcomeServerError
			res.Err = fmt.Errorf("client: job %s settled in unexpected state %q", st.ID, st.State)
			return res
		}
	}
}

// awaitTerminal polls a job until it reaches a terminal state.
func (c *Client) awaitTerminal(ctx context.Context, st server.Status) (server.Status, error) {
	for !st.State.Terminal() {
		if err := c.cfg.sleep(ctx, c.cfg.PollInterval+c.jitter(c.cfg.PollInterval/2)); err != nil {
			return st, &permanentError{err: err, deadline: errors.Is(err, context.DeadlineExceeded)}
		}
		next, err := c.Status(ctx, st.ID)
		if err != nil {
			return st, err
		}
		st = next
	}
	return st, nil
}
