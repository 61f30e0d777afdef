package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/obs"
	"dnastore/internal/store"
)

// The local executor: a bounded admission queue feeding a supervised
// worker pool. Each worker pops admitted jobs and runs them under full
// supervision: a per-attempt cancellable context carrying the deadline and
// the progress hook, panic isolation (both the per-cluster isolation
// inside SimulateCtx and a top-level recover for everything else), a stall
// timer, and the cancel-and-abandon protocol for attempts it kills.
// Simulation jobs execute through the per-cluster split-RNG scheme, so a
// job's output is byte-identical regardless of worker count, stall kills,
// or requeue history.

// ErrStalled is the cancellation cause of an attempt that went StallAfter
// without cluster progress. settle maps it to a requeue (bounded by the
// attempt cap) rather than a failure: a stall is usually environmental
// and transient, so the job deserves another worker.
var ErrStalled = errors.New("server: job stalled (no cluster progress)")

// localExec is the single-node Executor.
type localExec struct {
	s        *Server
	cfg      Config
	queue    *jobQueue
	breaker  *Breaker
	metrics  localMetrics
	workerWG sync.WaitGroup
}

// start wires the executor to its front-end and starts the workers.
func (e *localExec) start(s *Server) {
	e.s, e.cfg = s, s.cfg
	e.queue = newJobQueue(e.cfg.QueueCapacity)
	e.breaker = NewBreaker(e.cfg.BreakerThreshold, e.cfg.BreakerCooldown)
	e.metrics = newLocalMetrics(e, s.Registry())
	// Breaker transitions flow into the metric surface through a hook so
	// the breaker stays observable without importing obs itself. The hook
	// is installed before the workers, its only callers, start.
	e.breaker.onTransition = func(from, to BreakerState) {
		if c := e.metrics.breakerTo[to]; c != nil {
			c.Inc()
		}
		e.s.slog.Warn("breaker transition", "from", string(from), "to", string(to))
	}
	e.workerWG.Add(e.cfg.Workers)
	for i := 0; i < e.cfg.Workers; i++ {
		go e.worker()
	}
}

// Admit queues the job. The push never blocks: the queue is bounded and
// sheds with ErrQueueFull instead of waiting.
func (e *localExec) Admit(j *Job, _ string) error { return e.queue.push(j) }

// Ready: the local executor takes work whenever the front-end admits.
func (e *localExec) Ready() error { return nil }

// Health reports the I/O breaker.
func (e *localExec) Health() any {
	return map[string]BreakerState{"breaker": e.breaker.State()}
}

// Drain cancels the queued jobs, interrupts checkpointable running jobs so
// they journal and park, and gives everything else DrainGrace to finish
// before canceling it.
func (e *localExec) Drain() {
	// Shed the queue: those jobs never started, so there is nothing to
	// checkpoint.
	for _, j := range e.queue.close() {
		e.s.Finish(j, StateCanceled, nil, errDraining)
	}
	// Interrupt checkpointable in-flight jobs: their progress is durable,
	// so the fastest correct exit is "journal and park". Everything else
	// keeps running within the grace window.
	for _, j := range e.s.RunningJobs() {
		if e.jobCheckpointPath(j) != "" {
			j.Interrupt(errDraining)
		}
	}
	workersDone := make(chan struct{})
	go func() {
		e.workerWG.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-time.After(e.cfg.DrainGrace):
		e.s.slog.Warn("drain: grace expired, canceling stragglers")
		for _, j := range e.s.RunningJobs() {
			j.Interrupt(errDraining)
		}
		<-workersDone
	}
}

// errCanceledByClient is the cancellation cause for DELETE /v1/jobs/{id}.
var errCanceledByClient = errors.New("server: job canceled by client")

// errDraining is the cancellation cause used during graceful drain.
var errDraining = errors.New("server: draining")

// permanentError marks an attempt error that every retry would reproduce
// (a spec the simulator cannot build, a dataset the text format refuses),
// so settle fails the job on the attempt that met it.
type permanentError struct{ error }

func (e permanentError) Unwrap() error { return e.error }

// jobOutcome is what one execution attempt produced.
type jobOutcome struct {
	result []byte
	err    error
}

// worker loops until the queue closes and drains.
func (e *localExec) worker() {
	defer e.workerWG.Done()
	for {
		j := e.queue.pop()
		if j == nil {
			return
		}
		if j.State().Terminal() {
			// Canceled while queued; nothing to run.
			continue
		}
		e.runJob(j)
	}
}

// runJob executes one attempt of j and settles its fate: terminal state,
// or a requeue for another attempt.
func (e *localExec) runJob(j *Job) {
	// The attempt context: cancellable with a cause (stall kill, client
	// cancel, drain), bounded by the per-job or server-default deadline,
	// and carrying the progress hook that feeds both the status endpoint
	// and the stall timer.
	base, cancel := context.WithCancelCause(context.Background())
	timeout := time.Duration(j.Spec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = e.cfg.DefaultJobTimeout
	}
	// A client-supplied absolute deadline covers queueing too: a job whose
	// deadline expired while it waited fails fast instead of executing for
	// a client that has already given up, and otherwise tightens the
	// attempt timeout to the time actually remaining.
	if ddl := j.Spec.Deadline(); !ddl.IsZero() {
		remaining := time.Until(ddl)
		if remaining <= 0 {
			cancel(nil)
			e.s.Finish(j, StateFailed, nil, fmt.Errorf("server: job deadline expired while queued: %w", context.DeadlineExceeded))
			return
		}
		if timeout <= 0 || remaining < timeout {
			timeout = remaining
		}
	}
	ctx := base
	var cancelTimeout context.CancelFunc = func() {}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(base, timeout)
	}
	defer cancelTimeout()
	ctx = channel.WithProgress(ctx, j.setProgress)
	// The stage timer collects per-stage wall time and throughput from
	// every instrumented layer the attempt passes through (channel
	// simulation, pool sequencing, decode); it feeds the per-stage
	// histograms and the attempt's debug log after settling.
	stages := obs.NewStageTimer()
	ctx = obs.WithTimer(ctx, stages)

	// A client cancel that raced the pop either already parked the job
	// (Begin reports false) or will find the cancel hook.
	attempt, ok := j.Begin(cancel)
	if !ok {
		cancel(nil)
		return
	}
	j.touch()
	defer cancel(nil)

	// Execute in a child goroutine so a wedged attempt can be abandoned:
	// Go cannot preempt a stuck goroutine, so after a kill the worker
	// waits a short grace for voluntary exit (SimulateCtx yields between
	// clusters) and then walks away. The buffered channel lets the
	// abandoned goroutine finish without leaking.
	resCh := make(chan jobOutcome, 1)
	attemptStart := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				resCh <- jobOutcome{err: fmt.Errorf("server: job panic: %v", p)}
			}
		}()
		resCh <- e.execute(ctx, j)
	}()

	// The stall timer fires StallAfter past the last progress stamp: when
	// the attempt has completed a cluster since it was armed, it is
	// re-armed for the rest of the window; otherwise the attempt is killed
	// with ErrStalled. A non-positive StallAfter arms nothing.
	var stall *time.Timer
	var stallC <-chan time.Time
	if e.cfg.StallAfter > 0 {
		stall = time.NewTimer(e.cfg.StallAfter)
		defer stall.Stop()
		stallC = stall.C
	}
	var out jobOutcome
	abandoned := false
wait:
	for {
		select {
		case out = <-resCh:
			break wait
		case <-stallC:
			if idle := j.sinceProgress(); idle < e.cfg.StallAfter {
				stall.Reset(e.cfg.StallAfter - idle)
				continue
			}
			// Not re-armed, the timer stays quiet; a context already done
			// (client cancel, drain, deadline) takes the case below.
			if ctx.Err() == nil {
				cancel(fmt.Errorf("%w after %s", ErrStalled, e.cfg.StallAfter))
				e.metrics.kills.Inc()
				e.s.slog.Warn("watchdog kill", "job", j.ID, "stall_after", e.cfg.StallAfter)
			}
		case <-ctx.Done():
			select {
			case out = <-resCh:
			case <-time.After(e.cfg.KillGrace):
				abandoned = true
				out = jobOutcome{err: fmt.Errorf("server: attempt %d abandoned: %w", attempt, context.Cause(ctx))}
			}
			break wait
		}
	}
	e.metrics.attemptSecs.Observe(time.Since(attemptStart).Seconds())
	e.metrics.observeStages(stages.Snapshot())
	if summary := stages.Summary(); summary != "" {
		e.s.slog.Debug("attempt stages", "job", j.ID, "attempt", attempt, "stages", summary)
	}
	e.settle(j, ctx, out, abandoned)
}

// settle maps an attempt's outcome (and the cancellation cause, if any)
// onto the job lifecycle: done, failed, canceled, checkpointed, or
// requeued for another attempt.
func (e *localExec) settle(j *Job, ctx context.Context, out jobOutcome, abandoned bool) {
	cause := context.Cause(ctx)
	switch {
	case out.err == nil:
		e.closeJobCheckpoint(j, true)
		e.s.Finish(j, StateDone, out.result, nil)
		return

	case errors.Is(cause, errCanceledByClient) || errors.Is(out.err, errCanceledByClient):
		e.closeJobCheckpoint(j, false)
		e.s.Finish(j, StateCanceled, nil, errCanceledByClient)
		return

	case errors.Is(cause, errDraining) || errors.Is(out.err, errDraining):
		// Drain interrupted the attempt. With a journal the progress is
		// durable and the job is resumable; without one it is canceled.
		if e.jobCheckpointPath(j) != "" && !abandoned {
			e.closeJobCheckpoint(j, false)
			e.s.Finish(j, StateCheckpointed, nil, errDraining)
		} else {
			e.closeJobCheckpoint(j, false)
			e.s.Finish(j, StateCanceled, nil, errDraining)
		}
		return

	case errors.Is(cause, context.DeadlineExceeded) || errors.Is(out.err, context.DeadlineExceeded):
		// Re-running would meet the same deadline; fail now.
		e.closeJobCheckpoint(j, false)
		e.s.Finish(j, StateFailed, nil, fmt.Errorf("server: job deadline exceeded: %w", out.err))
		return

	case errors.Is(cause, ErrStalled):
		e.s.slog.Warn("attempt stalled", "job", j.ID, "error", out.err)
		e.retryOrFail(j, fmt.Errorf("stalled: %w", cause))
		return

	case errors.As(out.err, new(permanentError)):
		// A retry would meet the same error; fail now.
		e.closeJobCheckpoint(j, false)
		e.s.Finish(j, StateFailed, nil, out.err)
		return

	case errors.Is(out.err, ErrBreakerOpen):
		// The I/O dependency is known-bad; failing fast is the point.
		e.s.Finish(j, StateFailed, nil, out.err)
		return

	default:
		// Per-cluster panics, decode exhaustion, pool I/O errors: retry up
		// to the attempt cap — transient faults (injected or real) clear,
		// and the split-RNG scheme makes the retry deterministic.
		e.retryOrFail(j, out.err)
		return
	}
}

// retryOrFail requeues the job for another supervised attempt, or fails it
// at the attempt cap. During drain the queue refuses; a checkpointed job
// then parks as resumable, anything else is canceled.
func (e *localExec) retryOrFail(j *Job, attemptErr error) {
	j.mu.Lock()
	attempts := j.attempts
	j.err = attemptErr // visible in status while requeued
	j.mu.Unlock()
	if attempts >= e.cfg.MaxAttempts {
		e.closeJobCheckpoint(j, false)
		e.s.Finish(j, StateFailed, nil, fmt.Errorf("server: %d attempts exhausted, last: %w", attempts, attemptErr))
		return
	}
	j.touch()
	// Requeue and log under j.mu: a worker that pops the job blocks on the
	// lock (in State, then Begin) until the record is written, so the log
	// never shows the retry's outcome before its requeue, and a requeue the
	// closed queue refuses logs nothing. The logger is the server's own
	// handler; a slow one delays only this job.
	j.mu.Lock()
	j.setStateLocked(StateQueued)
	j.cancel = nil
	err := e.queue.requeue(j)
	if err == nil {
		e.metrics.requeues.Inc()
		e.s.slog.Warn("job requeued", "job", j.ID, "attempt", attempts, "error", attemptErr)
	}
	j.mu.Unlock()
	if err != nil {
		e.closeJobCheckpoint(j, false)
		if e.jobCheckpointPath(j) != "" {
			e.s.Finish(j, StateCheckpointed, nil, errDraining)
		} else {
			e.s.Finish(j, StateCanceled, nil, errDraining)
		}
	}
}

// execute dispatches one attempt by kind.
func (e *localExec) execute(ctx context.Context, j *Job) jobOutcome {
	switch j.Spec.Kind {
	case KindSimulate:
		return e.executeSimulate(ctx, j)
	case KindRetrieve:
		return e.executeRetrieve(ctx, j)
	}
	return jobOutcome{err: fmt.Errorf("server: unknown job kind %q", j.Spec.Kind)}
}

// jobCheckpointPath returns the journal path for a simulate job, "" when
// checkpointing is off (no data dir) or the job is not a simulation. The
// path derives from the spec fingerprint, not the job ID, so resubmitting
// an identical spec — after a drain, or from a fresh server on the same
// data dir — resumes the journal.
func (e *localExec) jobCheckpointPath(j *Job) string {
	if e.cfg.DataDir == "" || j.Spec.Kind != KindSimulate {
		return ""
	}
	return filepath.Join(e.cfg.DataDir, fmt.Sprintf("sim-%016x.ckpt", j.Spec.Simulate.Fingerprint()))
}

// closeJobCheckpoint closes the job's journal handle if open; when the job
// completed, the journal has served its purpose and is removed.
func (e *localExec) closeJobCheckpoint(j *Job, completed bool) {
	j.mu.Lock()
	ckpt := j.ckpt
	j.ckpt = nil
	j.mu.Unlock()
	if ckpt == nil {
		return
	}
	ckpt.Close()
	if completed {
		if path := e.jobCheckpointPath(j); path != "" {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				e.s.slog.Warn("removing checkpoint failed", "job", j.ID, "error", err)
			}
		}
	}
}

// executeSimulate runs one attempt of a simulation job.
func (e *localExec) executeSimulate(ctx context.Context, j *Job) jobOutcome {
	spec := j.Spec.Simulate
	ch, cov, err := spec.Simulator()
	if err != nil {
		return jobOutcome{err: permanentError{err}}
	}
	// The journal identity comes from the spec's simulator, before any
	// WrapSimulation injector: drill wrappers change the channel's name but
	// not its output, and must not invalidate (or be required to reopen) a
	// checkpoint written by an unwrapped run.
	desc := channel.Simulator{Channel: ch, Coverage: cov}.Describe()
	if e.cfg.WrapSimulation != nil {
		ch, cov = e.cfg.WrapSimulation(ch, cov)
	}
	refs := spec.References()
	first, count := spec.ShardRange()
	sim := channel.Simulator{Channel: ch, Coverage: cov}

	// One journal handle lives on the job across attempts: an abandoned
	// attempt's goroutine may still commit to it, which is safe (the
	// journal locks, and committed clusters are deterministic) and avoids
	// two handles truncating the same file.
	j.mu.Lock()
	ckpt := j.ckpt
	j.mu.Unlock()
	path := e.jobCheckpointPath(j)
	if path != "" && ckpt == nil {
		// Journal open is disk I/O: it goes through the breaker so a dead
		// data dir trips fast instead of stalling every attempt.
		err := e.breaker.Do(func() error {
			var oerr error
			ckpt, oerr = channel.OpenCheckpoint(path, "simulated", refs, spec.Seed, desc)
			return oerr
		})
		if err != nil {
			return jobOutcome{err: fmt.Errorf("open checkpoint: %w", err)}
		}
		j.mu.Lock()
		j.ckpt = ckpt
		j.mu.Unlock()
		if n := ckpt.Completed(); n > 0 {
			e.s.slog.Info("resuming", "job", j.ID, "journaled", n, "clusters", count)
			j.setProgress(n, count)
		}
	}

	ds, simErr := sim.SimulateRange(ctx, "simulated", refs, spec.Seed, first, count, ckpt)
	if simErr != nil {
		var se *channel.SimulationError
		if errors.As(simErr, &se) && se.Canceled != nil {
			// Interrupted: surface the cancellation for settle to map.
			return jobOutcome{err: fmt.Errorf("%w (cause: %w)", se.Canceled, context.Cause(ctx))}
		}
		return jobOutcome{err: simErr}
	}
	// Exact-size: the job table holds the result until it is fetched.
	out, err := ds.AppendText(nil)
	if err != nil {
		return jobOutcome{err: permanentError{err}}
	}
	return jobOutcome{result: out}
}

// executeRetrieve runs one attempt of a retrieval job: pool load through
// the I/O breaker, then the adaptive read path.
func (e *localExec) executeRetrieve(ctx context.Context, j *Job) jobOutcome {
	spec := j.Spec.Retrieve
	var pool *store.Pool
	err := e.breaker.Do(func() error {
		p, _, lerr := store.LoadFile(spec.PoolPath)
		pool = p
		return lerr
	})
	if err != nil {
		return jobOutcome{err: fmt.Errorf("load pool: %w", err)}
	}
	faults, err := channel.ParseFaults(spec.Faults)
	if err != nil {
		return jobOutcome{err: err}
	}
	factory := func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
		m := channel.NewNaive("sequencer", channel.NanoporeMix(spec.ErrorRate))
		return faults.Bind(m, channel.NegBinCoverage{Mean: spec.Coverage * scale, Dispersion: 6})
	}
	pol := store.RetryPolicy{MaxAttempts: spec.Retries + 1, Backoff: spec.Backoff}
	data, _, _, err := pool.RetrieveAdaptive(ctx, spec.Key, factory, pol, spec.Seed)
	if err != nil {
		return jobOutcome{err: err}
	}
	return jobOutcome{result: data}
}
