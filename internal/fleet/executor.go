package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/server"
)

// The coordinator serves the jobs API through the same front-end a single
// dnasimd uses (server.NewFrontEnd): job table, Idempotency-Key replay,
// shedding, exactly-once finish, /healthz, /readyz and /metrics are the
// single node's own code, so internal/client and cmd/dnaload drive a fleet
// unchanged. This file is the executor behind it. Simulate jobs fan out
// across the fleet; retrieve jobs pass through to one node picked by
// rendezvous on the spec fingerprint.

// execRecord is the coordinator's state for one front-end job, kept in
// server.Job.Ext.
type execRecord struct {
	job *server.Job
	// led is the job's write-ahead ledger (nil without a DataDir).
	led *jobLedger

	mu     sync.Mutex
	report Report
}

func recordOf(j *server.Job) *execRecord { return j.Ext.(*execRecord) }

// executor is the coordinator's server.Executor. It is a type of its own
// because the coordinator's exported Drain is the front-end's full drain,
// of which the executor's Drain is one step.
type executor struct{ *Coordinator }

// Admit rejects specs that already carry a cluster range, then — with a
// ledger configured — fsyncs the admission record (job ID, key, spec,
// shard plan) while the front-end holds its admission lock, before the
// client's 202 exists. A crash after admission can forget nothing the
// client was promised; a ledger that cannot take the record sheds the
// job, because a disk hiccup is transient and a 202 the ledger cannot back
// would be a lie. The job then runs on its own goroutine.
func (e executor) Admit(j *server.Job, key string) error {
	if sp := j.Spec.Simulate; sp != nil && (sp.ClusterFirst != 0 || sp.ClusterCount != 0) {
		return errors.New("fleet: invalid job: spec already carries a cluster range; the coordinator owns the split")
	}
	rec := &execRecord{job: j}
	if e.ledger != nil {
		led, err := e.ledger.create(ledgerAccepted{
			ID: j.ID, Key: key, CreatedUnixMS: time.Now().UnixMilli(),
			ShardClusters: e.cfg.ShardClusters, Spec: j.Spec,
		})
		if err != nil {
			e.slog.Error("admission refused: ledger write failed", "error", err)
			return &server.ShedError{Reason: server.ShedLedgerError, Err: err}
		}
		rec.led = led
	}
	j.Ext = rec
	e.start(j)
	return nil
}

// start runs a job on its own goroutine, tracked for Drain.
func (c *Coordinator) start(j *server.Job) {
	c.jobWG.Add(1)
	go c.runJob(j)
}

// errDrainStop is the cancel cause Drain hands in-flight jobs: unlike a
// client cancel it is NOT a terminal verdict — the job stays non-terminal
// in its ledger, exactly so the next boot re-adopts it.
var errDrainStop = errors.New("fleet: coordinator draining; job parks for restart-resume")

// Drain parks in-flight jobs: their worker calls are canceled, but their
// ledgers keep them non-terminal so a restart re-adopts them against
// workers that kept computing. Once every job goroutine has settled
// (bounded by DrainGrace) the probe loop stops and the parked jobs'
// ledgers are fsynced shut.
func (e executor) Drain() {
	live := e.RunningJobs()
	e.slog.Info("draining", "in_flight", len(live), "grace", e.cfg.DrainGrace)
	for _, j := range live {
		j.Interrupt(errDrainStop)
	}
	settled := make(chan struct{})
	go func() { e.jobWG.Wait(); close(settled) }()
	select {
	case <-settled:
	case <-time.After(e.cfg.DrainGrace):
		e.slog.Warn("drain grace expired with jobs still settling")
	}
	e.Close()
	for _, j := range live {
		recordOf(j).led.close()
	}
	e.slog.Info("drained; ledger sealed")
}

// Ready: the coordinator can take work while at least one node is
// eligible; with zero eligible nodes every shard would ride the
// last-resort placement path, so readiness honestly says no.
func (e executor) Ready() error {
	for _, n := range e.nodes {
		if n.eligible() {
			return nil
		}
	}
	return errors.New("no eligible nodes")
}

// NodeHealth is one node's entry in the /healthz payload.
type NodeHealth struct {
	Name     string              `json:"name"`
	Healthy  bool                `json:"healthy"`
	Breaker  server.BreakerState `json:"breaker"`
	Eligible bool                `json:"eligible"`
}

// Health reports every node's probe verdict, breaker and eligibility.
func (e executor) Health() any {
	nodes := make([]NodeHealth, len(e.nodes))
	for i, n := range e.nodes {
		nodes[i] = NodeHealth{Name: n.name, Healthy: n.healthy.Load(), Breaker: n.brk.State(), Eligible: n.eligible()}
	}
	return map[string][]NodeHealth{"nodes": nodes}
}

// runJob drives one admitted job to a terminal state — or, when a drain
// interrupts it, parks it: the job stays non-terminal in memory and in
// its ledger, which is precisely the record the next boot re-adopts.
func (c *Coordinator) runJob(j *server.Job) {
	defer c.jobWG.Done()
	rec := recordOf(j)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	if ddl := j.Spec.Deadline(); !ddl.IsZero() {
		dctx, dcancel := context.WithDeadline(ctx, ddl)
		defer dcancel()
		ctx = dctx
	} else if j.Spec.TimeoutMS > 0 {
		tctx, tcancel := context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutMS)*time.Millisecond)
		defer tcancel()
		ctx = tctx
	}
	if _, ok := j.Begin(cancel); !ok {
		// Canceled before this goroutine started: journal the verdict.
		st := j.Snapshot()
		c.retire(rec, st.State, st.Error)
		return
	}

	var data []byte
	var rep Report
	var err error
	switch j.Spec.Kind {
	case server.KindSimulate:
		data, rep, err = c.simulateJob(ctx, *j.Spec.Simulate, rec.led)
	case server.KindRetrieve:
		data, err = c.passthrough(ctx, j.Spec)
	default:
		err = fmt.Errorf("fleet: unsupported job kind %q", j.Spec.Kind)
	}

	if err != nil && errors.Is(context.Cause(ctx), errDrainStop) {
		// Drain told the job to park, not to die: no terminal transition,
		// no terminal ledger frame. Workers keep computing their shards;
		// the restarted coordinator re-adopts the job from its ledger and
		// collects what finished in the meantime.
		c.slog.Info("job parked for restart-resume", "job", j.ID)
		return
	}

	state := server.StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, data = server.StateCanceled, nil
	default:
		state, data = server.StateFailed, nil
	}
	rec.mu.Lock()
	rec.report = rep
	rec.mu.Unlock()
	if c.Finish(j, state, data, err) {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		c.retire(rec, state, errStr)
	}
}

// retire journals a job's terminal verdict (fsynced), closes its ledger
// and hands the file to FIFO pruning.
func (c *Coordinator) retire(rec *execRecord, state server.JobState, errStr string) {
	rec.led.finish(state, errStr)
	if rec.led != nil {
		c.ledger.retire(rec.led.path)
	}
}

// passthrough runs a non-shardable job on one node, picked by rendezvous
// on the job fingerprint so repeated submissions land on the same node's
// caches and journals. Failed placements retry on the next-ranked node.
func (c *Coordinator) passthrough(ctx context.Context, spec server.JobSpec) ([]byte, error) {
	ranked := rank(c.nodes, spec.Fingerprint())
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxShardAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := ranked[attempt%len(ranked)]
		if !n.eligible() && attempt < c.cfg.MaxShardAttempts-1 {
			continue
		}
		res := n.cli.Run(ctx, spec)
		if res.Outcome == client.OutcomeSucceeded {
			return res.Data, nil
		}
		lastErr = fmt.Errorf("fleet: %s on %s settled %s: %w", spec.Kind, n.name, res.Outcome, res.Err)
	}
	return nil, lastErr
}

func (r *execRecord) snapshot() server.Status { return r.job.Snapshot() }

// job looks up a front-end job's execution record.
func (c *Coordinator) job(id string) (*execRecord, bool) {
	j, ok := c.Job(id)
	if !ok {
		return nil, false
	}
	return recordOf(j), true
}

// handleReport serves the per-shard report of a finished simulate job —
// the erasure account a degraded completion promises its caller.
func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	rec, ok := c.job(r.PathValue("id"))
	if !ok {
		server.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	st := rec.snapshot()
	w.Header().Set("X-Job-State", string(st.State))
	if !st.State.Terminal() {
		server.WriteJSON(w, http.StatusConflict, st)
		return
	}
	rec.mu.Lock()
	rep := rec.report
	rec.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, rep)
}
