// Package server implements dnasimd: a hardened, long-running job service
// over the simulation and retrieval primitives built in earlier layers.
// Clients submit simulation and retrieval jobs over HTTP (submit / status
// / result / cancel).
//
// The package is one jobs front-end over a small Executor interface. The
// front-end owns everything a client can observe: the job table and ID
// allocation, Idempotency-Key replay, admission order and shedding with
// one Retry-After clamp, exactly-once finish and the dnasimd_jobs_*
// metrics, cancel, drain phases, and the HTTP API. An executor only runs
// what the front-end admitted. New wires the local executor — a bounded
// queue and a supervised worker pool; internal/fleet wires a coordinator
// that shards jobs across worker nodes behind the same front-end, so both
// modes answer, shed and export metrics identically.
//
// Robustness is layered through the whole request lifecycle:
//
//   - Admission control: a bounded queue sheds excess load with 503 +
//     Retry-After instead of growing without bound.
//   - Deadline propagation: per-job (and server-default) timeouts flow as
//     context deadlines into SimulateCtx / RetrieveAdaptive.
//   - Supervision: per-cluster panic isolation (SimulateCtx), a top-level
//     recover per attempt, and a per-attempt stall timer in the worker that
//     kills attempts making no cluster progress and requeues them under an
//     attempt cap.
//   - Circuit breaker: pool/disk I/O trips open on consecutive failures
//     and fails fast until a half-open probe succeeds.
//   - Graceful drain: SIGTERM stops admission, lets in-flight jobs finish
//     or checkpoint to the durable journal, and exits cleanly; /healthz
//     and /readyz reflect each phase.
//
// Determinism is preserved end to end: jobs execute clusters via the
// per-cluster split-RNG scheme, so output is byte-identical regardless of
// worker count, stall kills, requeues, or drain/resume cycles.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/obs"
)

// Phase is the server lifecycle state exposed by /healthz and /readyz.
type Phase string

const (
	// PhaseServing: admitting and executing jobs.
	PhaseServing Phase = "serving"
	// PhaseDraining: admission stopped; in-flight jobs finishing or
	// checkpointing.
	PhaseDraining Phase = "draining"
	// PhaseStopped: every worker exited; the process is about to leave.
	PhaseStopped Phase = "stopped"
)

// Config parameterises a Server. The zero value is usable: every field
// has a production-shaped default.
type Config struct {
	// QueueCapacity bounds the admission queue (default 64). Submissions
	// beyond it are shed with 503 + Retry-After.
	QueueCapacity int
	// Workers sizes the worker pool (default GOMAXPROCS).
	Workers int
	// DataDir, when set, enables checkpoint journals for simulation jobs
	// (and is where drained jobs park their resumable state).
	DataDir string
	// MaxAttempts caps supervised retries per job (default 3).
	MaxAttempts int
	// StallAfter is how long a running job may go without completing a
	// cluster before its worker kills the attempt (default 30s; negative
	// disables).
	StallAfter time.Duration
	// KillGrace is how long a killed attempt gets to exit voluntarily
	// before the worker abandons its goroutine (default 2s).
	KillGrace time.Duration
	// DrainGrace bounds how long Drain waits for non-checkpointable jobs
	// before canceling them (default 30s).
	DrainGrace time.Duration
	// DefaultJobTimeout bounds jobs that set no timeout_ms (default: none).
	DefaultJobTimeout time.Duration
	// BreakerThreshold and BreakerCooldown configure the I/O circuit
	// breaker (defaults 5 failures, 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// WrapSimulation, when set, wraps every simulation job's channel and
	// coverage model — the chaos-drill injection point for panic, stall
	// and latency injectors.
	WrapSimulation func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel)
	// Logger receives structured per-request and per-job logs (job IDs,
	// outcomes, stage timings, drain and retry events; default: discard).
	Logger *slog.Logger
}

// estimatedJobTime is the per-job time behind the queue_full Retry-After
// estimate.
const estimatedJobTime = 2 * time.Second

// Executor runs the jobs the front-end admits. It holds only the calls the
// front-end makes; everything a client can observe stays in the Server.
// An executor starts execution itself: the local workers pop what Admit
// queued, and the fleet coordinator starts one goroutine per job in Admit,
// so no local Workers or QueueCapacity default caps a fleet.
type Executor interface {
	// Admit takes a new job, which already has its ID, into execution. It
	// runs under the admission lock and before the job is published, so it
	// must not block beyond local I/O nor call back into the Server. An
	// error refuses the job: a *ShedError or ErrQueueFull sheds it with
	// 503, anything else rejects it with 400.
	Admit(j *Job, key string) error
	// Drain stops execution once admission has closed: every job settles
	// or, where the executor can resume it later, parks. It returns when
	// no attempt is running any more (or the drain grace gave up on them).
	Drain()
	// Ready is nil while the executor can take work; otherwise the error
	// says why, and /readyz answers 503 with it.
	Ready() error
	// Health is the executor's own view in the /healthz payload.
	Health() any
}

// ShedError refuses an admission for a transient reason: the client gets
// 503 + Retry-After, and the refusal is counted under
// dnasimd_jobs_shed_total{reason=Reason}.
type ShedError struct {
	Reason string
	Err    error
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: not accepting jobs (%s): %v", e.Reason, e.Err)
}
func (e *ShedError) Unwrap() error { return e.Err }

// Server is the dnasimd jobs front-end. It implements http.Handler; the
// binary wires it to a net/http.Server and signal handling.
type Server struct {
	cfg      Config
	registry *obs.Registry
	exec     Executor
	idPrefix string
	metrics  *frontMetrics
	slog     *slog.Logger
	counts   jobCounts

	mu           sync.Mutex
	phase        Phase
	jobs         map[string]*Job
	idem         map[string]string // idempotency key -> job ID
	nextID       int
	drainStarted time.Time

	drainOnce sync.Once

	mux *http.ServeMux
}

// New starts a serving single-node Server over the local executor:
// workers are live on return.
func New(cfg Config) *Server {
	e := &localExec{}
	s := NewFrontEnd(cfg, "j", e)
	e.start(s)
	s.mux.HandleFunc("GET /drainz", s.handleDrainz)
	return s
}

// NewFrontEnd returns a serving front-end over exec, allocating job IDs as
// idPrefix plus a six-digit sequence, with a registry of its own for the
// metrics. It applies every Config default; the front-end itself reads
// only DrainGrace and Workers (the Retry-After hints) and Logger.
func NewFrontEnd(cfg Config, idPrefix string, exec Executor) *Server {
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.StallAfter == 0 {
		cfg.StallAfter = 30 * time.Second
	}
	if cfg.KillGrace <= 0 {
		cfg.KillGrace = 2 * time.Second
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	s := &Server{
		cfg:      cfg,
		registry: obs.NewRegistry(),
		exec:     exec,
		idPrefix: idPrefix,
		slog:     cfg.Logger,
		phase:    PhaseServing,
		jobs:     make(map[string]*Job),
		idem:     make(map[string]string),
	}
	s.metrics = newFrontMetrics(s, s.registry)
	s.routes()
	return s
}

// Registry returns the server's metrics registry (also served from
// GET /metrics).
func (s *Server) Registry() *obs.Registry { return s.registry }

// Finish moves a job to a terminal state and, if this call actually
// performed the transition, records outcome and latency exactly once.
// Every executor-side finish goes through here; the transition itself is
// idempotent, so racing finishers cannot double-count. It reports whether
// this call made the transition.
func (s *Server) Finish(j *Job, state JobState, result []byte, err error) bool {
	if !j.finish(state, result, err) {
		return false
	}
	s.recordFinish(j, state, err)
	return true
}

// recordFinish counts and logs a terminal transition that just happened,
// then closes the job's Done channel: whoever Done wakes finds the job
// already counted.
func (s *Server) recordFinish(j *Job, state JobState, err error) {
	defer close(j.done)
	s.metrics.observeFinish(j, state)
	attrs := []any{"job", j.ID, "kind", string(j.Spec.Kind), "state", string(state),
		"attempts", j.Attempts(), "elapsed", time.Since(j.created).Round(time.Millisecond)}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	s.slog.Info("job finished", attrs...)
}

// Phase returns the current lifecycle phase.
func (s *Server) Phase() Phase {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phase
}

// ErrDeadlineExpired is returned by Submit when the spec's client-supplied
// deadline has already passed at admission time. The HTTP layer maps it to
// 504: executing the job would burn a queue slot producing a result no one
// is still waiting for.
var ErrDeadlineExpired = errors.New("server: job deadline already expired at admission")

// Submit validates and admits a job, returning it, or an admission error
// (ErrQueueFull / ErrQueueClosed / *ShedError / ErrDeadlineExpired) the
// HTTP layer maps to 503 / 504.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	j, _, err := s.SubmitIdempotent("", spec)
	return j, err
}

// SubmitIdempotent is Submit with an optional idempotency key. A non-empty
// key that was already admitted returns the existing job with replayed =
// true instead of creating a duplicate — the contract that makes a client
// retry of a submit that raced a success safe. The checks run in one
// order: replay, then deadline, then phase and admission. So a client that
// lost its 202 gets its job back even once the server is draining. The
// key→job binding is made under the same critical section as admission, so
// two concurrent submits with the same key can never both create a job.
func (s *Server) SubmitIdempotent(key string, spec JobSpec) (j *Job, replayed bool, err error) {
	if err := spec.Validate(); err != nil {
		return nil, false, fmt.Errorf("server: invalid job: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if key != "" {
		if id, ok := s.idem[key]; ok {
			if prev, ok := s.jobs[id]; ok && prev.State() != StateCheckpointed {
				// Replay everything except a checkpointed job: resumable
				// means "resubmit to continue", so the retry admits a fresh
				// job (which picks the journal back up) and rebinds the key.
				s.metrics.idemReplays.Inc()
				return prev, true, nil
			}
		}
	}
	if ddl := spec.Deadline(); !ddl.IsZero() && !time.Now().Before(ddl) {
		return nil, false, ErrDeadlineExpired
	}
	if s.phase != PhaseServing {
		return nil, false, ErrQueueClosed
	}
	id := fmt.Sprintf("%s%06d", s.idPrefix, s.nextID+1)
	j = newJob(id, spec, &s.counts)
	if err := s.exec.Admit(j, key); err != nil {
		s.counts.add(StateQueued, -1) // never published
		return nil, false, err
	}
	s.nextID++
	s.jobs[id] = j
	if key != "" {
		s.idem[key] = id
	}
	s.metrics.submitted.Inc()
	s.slog.Info("job admitted", "job", id, "kind", string(spec.Kind), "queue_depth", s.counts.queued.Load())
	return j, false, nil
}

// Restored is a job an executor recovered from its own durable records.
type Restored struct {
	ID, Key string
	Spec    JobSpec
	Created time.Time
	// State, when terminal, pins a job that finished in an earlier process
	// life, with its Result and Err. Otherwise the job is published queued
	// and the executor runs it again.
	State  JobState
	Result []byte
	Err    error
	Ext    any
}

// Restore publishes a recovered job under its original ID and
// Idempotency-Key and moves ID allocation past it. A terminal verdict is
// not counted again: the job finished in an earlier process life, and this
// one merely remembers it.
func (s *Server) Restore(r Restored) *Job {
	j := newJob(r.ID, r.Spec, &s.counts)
	j.created, j.Ext = r.Created, r.Ext
	if r.State.Terminal() {
		j.finish(r.State, r.Result, r.Err)
		close(j.done)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[r.ID] = j
	if r.Key != "" {
		s.idem[r.Key] = r.ID
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(r.ID, s.idPrefix)); err == nil && n > s.nextID {
		s.nextID = n
	}
	return j
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Queued jobs park immediately;
// running jobs get their attempt context canceled and settle shortly.
func (s *Server) Cancel(id string) (JobState, error) {
	j, ok := s.Job(id)
	if !ok {
		return "", fmt.Errorf("server: unknown job %q", id)
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		st := j.state
		j.mu.Unlock()
		return st, nil
	case j.state == StateQueued:
		// Settled here; the executor skips terminal jobs when it gets to
		// them (Begin reports false).
		transitioned := j.finishLocked(StateCanceled, nil, errCanceledByClient)
		j.mu.Unlock()
		if transitioned {
			s.recordFinish(j, StateCanceled, errCanceledByClient)
		}
		return StateCanceled, nil
	default:
		j.mu.Unlock()
		j.Interrupt(errCanceledByClient)
		return StateRunning, nil
	}
}

// maxRetryAfterSeconds caps the Retry-After hint: past an hour the number
// stops being advice and starts being a bug amplifier.
const maxRetryAfterSeconds = 3600

// retryAfter is the Retry-After hint for a refused request, RFC 9110
// delta-seconds. While draining or stopped it is the remainder of the
// drain window: admission never resumes in this process, so by then this
// instance has exited and its replacement (or the load balancer) can take
// the retry — and the shed path and /readyz hear the same number. A
// queue_full shed gets the backlog estimate: queued plus running jobs
// spread across the workers at estimatedJobTime each. Every other refusal
// (an unready executor, a ledger hiccup) clears on the order of probe
// ticks, so its hint is the 1-second floor.
func (s *Server) retryAfter(reason string) int {
	s.mu.Lock()
	phase, drainStarted := s.phase, s.drainStarted
	s.mu.Unlock()
	var sec float64
	switch {
	case phase == PhaseDraining || phase == PhaseStopped:
		rem := s.cfg.DrainGrace
		if !drainStarted.IsZero() {
			rem -= time.Since(drainStarted)
		}
		sec = rem.Seconds()
	case reason == shedQueueFull:
		backlog := s.counts.queued.Load() + s.counts.running.Load()
		sec = estimatedJobTime.Seconds() * float64(backlog+1) / float64(max(s.cfg.Workers, 1))
	}
	return clampRetryAfter(sec)
}

// clampRetryAfter rounds sec up into [1, maxRetryAfterSeconds]. A 0 (or
// fractional) Retry-After makes well-behaved clients retry immediately,
// and the comparisons also catch a NaN/Inf estimate before the float→int
// conversion, whose behavior is undefined out of range.
func clampRetryAfter(sec float64) int {
	switch {
	case !(sec > 1): // ≤1, or NaN
		return 1
	case sec >= maxRetryAfterSeconds:
		return maxRetryAfterSeconds
	}
	return int(math.Ceil(sec))
}

// Drain executes the graceful shutdown state machine:
//
//	serving → draining: admission stops (submissions shed; /readyz flips
//	  to 503) and the executor drains: the local one cancels queued jobs,
//	  checkpoints what it can and gives the rest DrainGrace; the fleet
//	  parks in-flight jobs in their ledgers for a restart.
//	→ stopped: no attempt runs any more; /healthz answers 503.
//
// Drain is idempotent and returns once the server is stopped.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.phase = PhaseDraining
		s.drainStarted = time.Now()
		s.mu.Unlock()
		s.slog.Info("drain: admission stopped")
		s.exec.Drain()
		s.mu.Lock()
		s.phase = PhaseStopped
		s.mu.Unlock()
		s.slog.Info("drain: stopped")
	})
}

// RunningJobs snapshots jobs currently in StateRunning.
func (s *Server) RunningJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if j.State() == StateRunning {
			out = append(out, j)
		}
	}
	return out
}

// Health is the /healthz payload.
type Health struct {
	Phase      Phase `json:"phase"`
	QueueDepth int   `json:"queue_depth"`
	Running    int   `json:"running"`
	Jobs       int   `json:"jobs"`
	// Executor is the executor's own view: the local I/O breaker, or the
	// fleet's per-node health.
	Executor any `json:"executor,omitempty"`
}

// HealthSnapshot returns the current health view.
func (s *Server) HealthSnapshot() Health {
	s.mu.Lock()
	jobs := len(s.jobs)
	phase := s.phase
	s.mu.Unlock()
	return Health{
		Phase:      phase,
		QueueDepth: int(s.counts.queued.Load()),
		Running:    int(s.counts.running.Load()),
		Jobs:       jobs,
		Executor:   s.exec.Health(),
	}
}

// routes builds the HTTP mux. Routes that exist in one mode only are
// mounted by that mode's constructor beside these.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.registry.Handler())
	s.mux = mux
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler, logging every request with method,
// path, status and latency. Job routes log at info; health and metrics
// probes at debug so scrapers don't flood the log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	lvl := slog.LevelDebug
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		lvl = slog.LevelInfo
	}
	s.slog.Log(r.Context(), lvl, "http request",
		"method", r.Method, "path", r.URL.Path, "status", sw.code,
		"elapsed", time.Since(start).Round(time.Microsecond))
}

// shed answers a refused submission: 503 with a Retry-After hint, the
// admission-control contract, counted by reason.
func (s *Server) shed(w http.ResponseWriter, reason string) {
	if c := s.metrics.shed[reason]; c != nil {
		c.Inc()
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(reason)))
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": reason})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("decode job spec: %v", err)})
		return
	}
	j, replayed, err := s.SubmitIdempotent(r.Header.Get(IdempotencyKeyHeader), spec)
	var se *ShedError
	switch {
	case errors.Is(err, ErrQueueFull):
		s.shed(w, shedQueueFull)
		return
	case errors.Is(err, ErrQueueClosed):
		s.shed(w, shedDraining)
		return
	case errors.As(err, &se):
		s.shed(w, se.Reason)
		return
	case errors.Is(err, ErrDeadlineExpired):
		// 504, not 503: the client's time budget is spent, so "come back
		// later" would be a lie — there is no Retry-After that helps.
		s.metrics.shed[shedDeadline].Inc()
		WriteJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
		return
	case err != nil:
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if replayed {
		w.Header().Set(IdempotencyReplayedHeader, "true")
		WriteJSON(w, http.StatusOK, j.Snapshot())
		return
	}
	WriteJSON(w, http.StatusAccepted, j.Snapshot())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	WriteJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	st := j.Snapshot()
	w.Header().Set("X-Job-State", string(st.State))
	data, ok := j.Result()
	if !ok {
		WriteJSON(w, http.StatusConflict, st)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(BodyChecksumHeader, BodyChecksum(data))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Cancel(id); err != nil {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	j, _ := s.Job(id)
	WriteJSON(w, http.StatusAccepted, j.Snapshot())
}

// handleHealthz is liveness plus introspection: 200 while the process is
// serving or draining (it is alive and can answer), with the full health
// snapshot as the body; 503 once stopped.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.HealthSnapshot()
	code := http.StatusOK
	if h.Phase == PhaseStopped {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

// handleReadyz is readiness: 200 only while admitting jobs and the
// executor can take work, so load balancers stop routing to a draining (or
// node-starved) instance before it sheds.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := string(s.Phase())
	if status == string(PhaseServing) {
		err := s.exec.Ready()
		if err == nil {
			WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		status = err.Error()
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter("")))
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": status})
}
