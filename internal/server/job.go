package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/store"
)

// JobKind selects the workload a job runs.
type JobKind string

const (
	// KindSimulate runs the noisy-channel simulator over reference strands
	// and returns the clustered dataset.
	KindSimulate JobKind = "simulate"
	// KindRetrieve runs the resilient read path against a stored pool file
	// and returns the recovered object bytes.
	KindRetrieve JobKind = "retrieve"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateDone: completed; the result is available.
	StateDone JobState = "done"
	// StateFailed: exhausted its attempts or hit a non-retryable error.
	StateFailed JobState = "failed"
	// StateCanceled: stopped by client request or abandoned at drain
	// without a journal.
	StateCanceled JobState = "canceled"
	// StateCheckpointed: interrupted by drain with its progress journaled;
	// resubmitting the same spec resumes from the journal.
	StateCheckpointed JobState = "checkpointed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateCheckpointed:
		return true
	}
	return false
}

// SimulateSpec parameterises a simulation job. References are either given
// inline or generated; everything is seeded, so the same spec always
// produces the same dataset — which is also what makes a drained job
// resumable: the spec hash names its checkpoint journal.
type SimulateSpec struct {
	// Refs are explicit reference strands; empty means generate NumRefs
	// random references of RefLen bases from the seed.
	Refs []string `json:"refs,omitempty"`
	// NumRefs and RefLen size the generated reference set when Refs is
	// empty.
	NumRefs int `json:"num_refs,omitempty"`
	RefLen  int `json:"ref_len,omitempty"`
	// Seed drives every stochastic choice.
	Seed uint64 `json:"seed"`
	// Sub, Ins, Del are the per-base channel error rates.
	Sub float64 `json:"sub,omitempty"`
	Ins float64 `json:"ins,omitempty"`
	Del float64 `json:"del,omitempty"`
	// Spatial is the error position distribution (uniform when empty).
	Spatial string `json:"spatial,omitempty"`
	// Stages is a multi-stage channel, the stage directives of the channel
	// grammar (channel.ParseStages); mutually exclusive with
	// Sub/Ins/Del/Spatial.
	// Pool stages (PCR skew, breakage) bind over the coverage model. The
	// raw string is part of the fingerprint, so identical stage specs
	// shard, cache and resume together across dnasimd and the fleet.
	Stages string `json:"stages,omitempty"`
	// Coverage is the reads-per-cluster target; CoverageModel names the
	// sampler for channel.CoverageByName (fixed when empty).
	Coverage      float64 `json:"coverage,omitempty"`
	CoverageModel string  `json:"coverage_model,omitempty"`
	// Faults holds the fault directives of the channel grammar
	// (channel.ParseFaults).
	Faults string `json:"faults,omitempty"`
	// ClusterFirst and ClusterCount select a cluster-range shard: only
	// clusters [ClusterFirst, ClusterFirst+ClusterCount) are simulated,
	// against the full reference set, with per-cluster RNGs derived from
	// global indices. A zero ClusterCount means the whole set. The fleet
	// coordinator splits a spec into such shards and merges the results
	// byte-identically; the range is part of the fingerprint, so each
	// shard gets its own checkpoint journal.
	ClusterFirst int `json:"cluster_first,omitempty"`
	ClusterCount int `json:"cluster_count,omitempty"`
}

// NumClusters is the total cluster count of the full (unsharded) spec.
func (sp *SimulateSpec) NumClusters() int {
	if len(sp.Refs) > 0 {
		return len(sp.Refs)
	}
	return sp.NumRefs
}

// ShardRange resolves the cluster range this spec covers: the explicit
// shard range when set, the whole set otherwise.
func (sp *SimulateSpec) ShardRange() (first, count int) {
	if sp.ClusterCount > 0 {
		return sp.ClusterFirst, sp.ClusterCount
	}
	return 0, sp.NumClusters()
}

// maxWork bounds the read bases one job may generate, its reference bases
// times max(coverage, 1): far past every spec the load and benchmark tools
// submit, where the per-factor limits alone admit 2^36 reference bases.
const maxWork = 1 << 30

// checkWork rejects work over maxWork, and NaN coverage.
func checkWork(bases int, coverage float64) error {
	if w := float64(bases) * math.Max(coverage, 1); !(w <= maxWork) {
		return fmt.Errorf("spec too large: %d reference bases at coverage %g exceed %d read bases", bases, coverage, maxWork)
	}
	return nil
}

// Validate checks the spec and applies defaults.
func (sp *SimulateSpec) Validate() error {
	bases := 0
	if len(sp.Refs) == 0 {
		bases = sp.NumRefs * sp.RefLen
		if sp.NumRefs <= 0 || sp.RefLen <= 0 {
			return errors.New("simulate spec needs refs or num_refs+ref_len")
		}
		if sp.NumRefs > 1<<20 || sp.RefLen > 1<<16 {
			return fmt.Errorf("simulate spec too large: %d refs of %d bases", sp.NumRefs, sp.RefLen)
		}
	}
	for _, r := range sp.Refs {
		if err := dna.Strand(r).Validate(); err != nil {
			return fmt.Errorf("invalid reference: %w", err)
		}
		bases += len(r)
	}
	rates := channel.Rates{Sub: sp.Sub, Ins: sp.Ins, Del: sp.Del}
	if err := rates.Validate(); err != nil {
		return err
	}
	stages, err := channel.ParseStages(sp.Stages)
	if err != nil {
		return err
	}
	// A blank stages value means no stages, as a blank faults value means
	// no faults.
	if len(stages) > 0 && (sp.Sub != 0 || sp.Ins != 0 || sp.Del != 0 || sp.Spatial != "") {
		return errors.New("stages is mutually exclusive with sub/ins/del/spatial")
	}
	if sp.Coverage <= 0 {
		sp.Coverage = 6
	}
	if err := checkWork(bases, sp.Coverage); err != nil {
		return err
	}
	if _, err := channel.CoverageByName(sp.CoverageModel, sp.Coverage); err != nil {
		return err
	}
	if sp.Spatial != "" && sp.Spatial != "uniform" {
		if _, err := dist.ByName(sp.Spatial); err != nil {
			return err
		}
	}
	if _, err := channel.ParseFaults(sp.Faults); err != nil {
		return err
	}
	switch {
	case sp.ClusterFirst < 0 || sp.ClusterCount < 0:
		return fmt.Errorf("cluster range [%d, +%d) negative", sp.ClusterFirst, sp.ClusterCount)
	case sp.ClusterCount == 0 && sp.ClusterFirst > 0:
		return errors.New("cluster_first without cluster_count")
	case sp.ClusterCount > 0 && sp.ClusterFirst+sp.ClusterCount > sp.NumClusters():
		return fmt.Errorf("cluster range [%d, %d) outside [0, %d)",
			sp.ClusterFirst, sp.ClusterFirst+sp.ClusterCount, sp.NumClusters())
	}
	return nil
}

// References materialises the reference strands.
func (sp *SimulateSpec) References() []dna.Strand {
	if len(sp.Refs) > 0 {
		refs := make([]dna.Strand, len(sp.Refs))
		for i, r := range sp.Refs {
			refs[i] = dna.Strand(r)
		}
		return refs
	}
	// The reference seed is split from the read seed so reads and
	// references stay independent streams.
	return channel.RandomReferences(sp.NumRefs, sp.RefLen, sp.Seed^0xa5a5a5a5a5a5a5a5)
}

// Simulator builds the channel and coverage model the spec describes.
func (sp *SimulateSpec) Simulator() (channel.Channel, channel.CoverageModel, error) {
	stages, err := channel.ParseStages(sp.Stages)
	if err != nil {
		return nil, nil, err
	}
	faults, err := channel.ParseFaults(sp.Faults)
	if err != nil {
		return nil, nil, err
	}
	var ch channel.Channel
	if len(stages) > 0 {
		ch = stages.Build("dnasimd-staged")
	} else {
		m := channel.NewNaive("dnasimd", channel.Rates{Sub: sp.Sub, Ins: sp.Ins, Del: sp.Del})
		ch = m
		if sp.Spatial != "" && sp.Spatial != "uniform" {
			spat, err := dist.ByName(sp.Spatial)
			if err != nil {
				return nil, nil, err
			}
			ch = m.WithSpatial(spat)
		}
	}
	cov, err := channel.CoverageByName(sp.CoverageModel, sp.Coverage)
	if err != nil {
		return nil, nil, err
	}
	ch, cov = faults.Bind(ch, cov)
	return ch, cov, nil
}

// Fingerprint hashes the spec's canonical JSON. It names the checkpoint
// journal, so a resubmitted identical spec resumes where a drained run
// stopped.
func (sp *SimulateSpec) Fingerprint() uint64 {
	b, _ := json.Marshal(sp)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// RetrieveSpec parameterises a retrieval job: the resilient read path of
// Pool.RetrieveAdaptive against a pool file on disk.
type RetrieveSpec struct {
	// PoolPath is the pool container file (read through the I/O breaker).
	PoolPath string `json:"pool_path"`
	// Key is the object to recover.
	Key string `json:"key"`
	// ErrorRate and Coverage configure the simulated sequencer.
	ErrorRate float64 `json:"error_rate,omitempty"`
	Coverage  float64 `json:"coverage,omitempty"`
	// Seed drives the sequencing run.
	Seed uint64 `json:"seed"`
	// Retries and Backoff bound the adaptive re-sequencing loop.
	Retries int     `json:"retries,omitempty"`
	Backoff float64 `json:"backoff,omitempty"`
	// Faults holds the fault directives of the channel grammar
	// (channel.ParseFaults).
	Faults string `json:"faults,omitempty"`
}

// Validate checks the spec and applies defaults.
func (sp *RetrieveSpec) Validate() error {
	if sp.PoolPath == "" || sp.Key == "" {
		return errors.New("retrieve spec needs pool_path and key")
	}
	if sp.Coverage <= 0 {
		sp.Coverage = 14
	}
	// A zero backoff means RetryPolicy's default, 2.
	backoff := sp.Backoff
	if backoff == 0 {
		backoff = 2
	}
	if err := store.CheckRetrieve([4]string{"error_rate", "coverage", "retries", "backoff"},
		sp.ErrorRate, sp.Coverage, sp.Retries, backoff); err != nil {
		return err
	}
	// The pool's size is only known once the job loads it, so admission
	// bounds the coverage as if the pool held a single base.
	if err := checkWork(1, sp.Coverage); err != nil {
		return err
	}
	_, err := channel.ParseFaults(sp.Faults)
	return err
}

// JobSpec is the submission payload: one kind plus its parameters and an
// optional per-job deadline.
type JobSpec struct {
	Kind JobKind `json:"kind"`
	// TimeoutMS bounds the job's execution (0 means the server default).
	// The deadline flows into SimulateCtx / RetrieveAdaptive as a context
	// deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DeadlineUnixMS is an absolute client-supplied deadline (Unix
	// milliseconds). Unlike TimeoutMS — which starts counting when an
	// attempt starts — the deadline covers queueing and retries too: a
	// submission whose deadline has already passed is rejected at
	// admission (the client is gone; queueing it would waste a slot), and
	// a queued job whose deadline expires before a worker reaches it
	// fails fast instead of executing for nobody.
	DeadlineUnixMS int64         `json:"deadline_unix_ms,omitempty"`
	Simulate       *SimulateSpec `json:"simulate,omitempty"`
	Retrieve       *RetrieveSpec `json:"retrieve,omitempty"`
}

// Deadline returns the absolute deadline, or zero time when unset.
func (s *JobSpec) Deadline() time.Time {
	if s.DeadlineUnixMS <= 0 {
		return time.Time{}
	}
	return time.UnixMilli(s.DeadlineUnixMS)
}

// Fingerprint hashes the whole spec's canonical JSON — the identity used
// for idempotent resubmission: a client retrying a submit whose response
// it lost sends the same fingerprint and gets the same job back.
func (s *JobSpec) Fingerprint() uint64 {
	b, _ := json.Marshal(s)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Validate checks kind/params consistency.
func (s *JobSpec) Validate() error {
	if s.TimeoutMS < 0 {
		return errors.New("timeout_ms negative")
	}
	if s.DeadlineUnixMS < 0 {
		return errors.New("deadline_unix_ms negative")
	}
	switch s.Kind {
	case KindSimulate:
		if s.Simulate == nil || s.Retrieve != nil {
			return errors.New("simulate job needs exactly the simulate params")
		}
		return s.Simulate.Validate()
	case KindRetrieve:
		if s.Retrieve == nil || s.Simulate != nil {
			return errors.New("retrieve job needs exactly the retrieve params")
		}
		return s.Retrieve.Validate()
	}
	return fmt.Errorf("unknown job kind %q", s.Kind)
}

// Progress is a jobs's cluster-completion counter.
type Progress struct {
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// Job is one admitted unit of work. Mutable state is guarded by mu; the
// progress stamp is atomic because simulation workers hit it concurrently.
type Job struct {
	// ID is the server-assigned handle.
	ID string
	// Spec is the validated submission.
	Spec JobSpec
	// Ext is executor-owned state (the coordinator's ledger and shard
	// report). It is set before the job is published and the front-end
	// never reads it.
	Ext any
	// created stamps admission; job latency metrics measure from here.
	created time.Time
	// counts is the front-end's live-state tally this job reports its
	// transitions to.
	counts *jobCounts

	mu       sync.Mutex
	state    JobState
	attempts int
	err      error
	result   []byte
	progress Progress
	// cancel stops the current execution attempt with a cause; nil while
	// not running.
	cancel func(cause error)
	// ckpt is the simulation job's open journal handle, shared across
	// attempts so an abandoned attempt and its requeue never hold two
	// handles on the same file.
	ckpt *channel.Checkpoint
	// done is closed when the job reaches a terminal state.
	done chan struct{}

	// lastProgress is the unix-nano timestamp of the last observed cluster
	// completion (or attempt start); the worker's stall timer compares it
	// to now.
	lastProgress atomic.Int64
}

// jobCounts tallies jobs by live state, so the gauges, /healthz and the
// Retry-After estimate never scan the job table.
type jobCounts struct{ queued, running atomic.Int64 }

func (c *jobCounts) add(st JobState, d int64) {
	switch st {
	case StateQueued:
		c.queued.Add(d)
	case StateRunning:
		c.running.Add(d)
	}
}

// newJob returns a queued job reporting to counts.
func newJob(id string, spec JobSpec, counts *jobCounts) *Job {
	j := &Job{ID: id, Spec: spec, created: time.Now(), state: StateQueued, counts: counts, done: make(chan struct{})}
	counts.add(StateQueued, 1)
	j.touch()
	return j
}

// setStateLocked moves the job to st, keeping the live-state tally
// current. Callers hold j.mu.
func (j *Job) setStateLocked(st JobState) {
	j.counts.add(j.state, -1)
	j.counts.add(st, 1)
	j.state = st
}

// Begin starts an execution attempt: a queued job becomes running and
// cancel becomes its interrupt hook, in one critical section, so a racing
// Cancel either already settled the job (Begin reports false) or will find
// the hook. It returns the attempt number.
func (j *Job) Begin(cancel func(cause error)) (attempt int, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return 0, false
	}
	j.setStateLocked(StateRunning)
	j.attempts++
	j.cancel = cancel
	return j.attempts, true
}

// Interrupt cancels the job's running attempt with cause and reports
// whether there was one; a job not running is left alone.
func (j *Job) Interrupt(cause error) bool {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel(cause)
	}
	return cancel != nil
}

// touch stamps progress now; called at attempt start and per cluster.
func (j *Job) touch() { j.lastProgress.Store(time.Now().UnixNano()) }

// sinceProgress returns the time since the last progress stamp.
func (j *Job) sinceProgress() time.Duration {
	return time.Duration(time.Now().UnixNano() - j.lastProgress.Load())
}

// setProgress records cluster completion counts (and stamps the stall
// clock). Safe for concurrent use.
func (j *Job) setProgress(completed, total int) {
	j.touch()
	j.mu.Lock()
	if completed > j.progress.Completed || total != j.progress.Total {
		j.progress = Progress{Completed: completed, Total: total}
	}
	j.mu.Unlock()
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Attempts returns how many execution attempts have started.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's output once done.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// finish moves the job to a terminal state exactly once; it reports
// whether this call performed the transition (false when the job was
// already terminal), so callers can attach one-shot side effects such as
// metrics without double counting. It leaves Done open: the caller that
// made the transition closes it once those side effects are done, so a
// waiter woken by Done sees the job counted.
func (j *Job) finish(state JobState, result []byte, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finishLocked(state, result, err)
}

// finishLocked is finish for callers already holding j.mu.
func (j *Job) finishLocked(state JobState, result []byte, err error) bool {
	if j.state.Terminal() {
		return false
	}
	j.setStateLocked(state)
	j.result = result
	j.err = err
	j.cancel = nil
	return true
}

// Status is the JSON snapshot the HTTP API serves.
type Status struct {
	ID       string   `json:"id"`
	Kind     JobKind  `json:"kind"`
	State    JobState `json:"state"`
	Attempts int      `json:"attempts"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
	// Resumable marks a checkpointed job whose journal survives:
	// resubmitting the same spec continues it.
	Resumable bool `json:"resumable,omitempty"`
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		Kind:     j.Spec.Kind,
		State:    j.state,
		Attempts: j.attempts,
		Progress: j.progress,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	st.Resumable = j.state == StateCheckpointed
	return st
}
