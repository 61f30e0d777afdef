package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"dnastore/internal/server"
)

// Boot-time recovery: replay the write-ahead ledger and restore every job
// the previous process life promised a client. This runs synchronously
// inside New, before any listener can bind the coordinator — a client that
// was mid-poll when the old process died must find its job ID answering
// again, never a permanent 404 (which internal/client rightly treats as a
// permanent error, not a retryable one).
//
// The replay state machine, per ledger file:
//
//	unreadable header / no accepted frame  → delete (202 never committed)
//	finished failed|canceled               → restore the terminal verdict
//	finished done                          → rebuild result from spill, or
//	                                         re-adopt and recompute
//	accepted, not finished (in-flight)     → re-adopt: re-run the job
//
// Re-adoption is cheap by construction: shard results are content-addressed,
// so everything the old process spilled comes back as spill hits, and a
// worker still computing a shard replays the running job via the derived
// Idempotency-Key instead of starting a duplicate.
func (c *Coordinator) recover() {
	recs, err := c.ledger.replay()
	if err != nil {
		c.slog.Error("ledger replay failed; starting with empty job state", "error", err)
		return
	}
	var adopted, restored int
	for _, rec := range recs {
		c.metrics.ledgerReplays.Inc()
		if c.adoptRecord(rec) {
			adopted++
		} else {
			restored++
		}
	}
	if len(recs) > 0 {
		c.slog.Info("ledger replayed", "jobs", len(recs),
			"re_adopted", adopted, "restored_terminal", restored)
	}
}

// adoptRecord publishes one replayed ledger record through the front-end
// under its old ID and Idempotency-Key. Reports whether the job was
// re-adopted (re-run) as opposed to restored in a terminal state.
func (c *Coordinator) adoptRecord(rec *ledgerRecord) bool {
	a := rec.accepted
	run := &execRecord{led: rec.led}
	restored := server.Restored{
		ID: a.ID, Key: a.Key, Spec: a.Spec,
		Created: time.UnixMilli(a.CreatedUnixMS), Ext: run,
	}
	// Decide the job's fate before publishing it, so no client observes an
	// intermediate state.
	switch {
	case a.Spec.Validate() != nil:
		// The spec round-tripped through JSON and no longer validates —
		// a hand-edited or version-skewed ledger. The honest verdict is an
		// explicit failure under the old ID, not a silent drop.
		restored.State = server.StateFailed
		restored.Err = fmt.Errorf("fleet: recovered spec no longer validates: %w", a.Spec.Validate())
		c.slog.Warn("recovered job failed validation", "job", a.ID, "error", restored.Err)
	case rec.finished == nil:
		// In-flight at the crash (or parked by a drain): re-adopt.
	case rec.finished.State == string(server.StateFailed) ||
		rec.finished.State == string(server.StateCanceled):
		restored.State = server.JobState(rec.finished.State)
		if rec.finished.Error != "" {
			restored.Err = errors.New(rec.finished.Error)
		}
	case rec.finished.State == string(server.StateDone):
		if data, rep, ok := c.restoreDone(a.Spec, a.ShardClusters); ok {
			restored.State, restored.Result, run.report = server.StateDone, data, rep
			c.slog.Info("job restored from spill", "job", a.ID)
		}
		// Otherwise the spill no longer holds every shard (GC, bit rot, or
		// a non-simulate kind). Determinism makes recomputation safe: the
		// re-run produces the same bytes the client was promised.
	default:
		c.slog.Warn("recovered job carries unknown terminal state; re-running",
			"job", a.ID, "state", rec.finished.State)
	}

	run.job = c.Restore(restored)
	if restored.State.Terminal() {
		// Finished in a previous process life; this life merely remembers
		// the verdict.
		rec.led.close()
		c.ledger.retire(rec.led.path)
		return false
	}
	c.metrics.recovered.Inc()
	rec.led.replayed()
	c.slog.Info("job re-adopted from ledger", "job", a.ID, "kind", string(a.Spec.Kind))
	c.start(run.job)
	return true
}

// restoreDone rebuilds a finished simulate job's merged result purely from
// the spill store: re-derive the shard plan recorded at admission, read
// every shard back, merge in range order. Succeeds only when every shard is
// present — a single gap falls back to re-adoption, because a partially
// restored result would not be the bytes the client was promised.
//
// Shards read back also seed the memory cache, so even a failed restore
// leaves the subsequent re-run mostly cache-warm.
func (c *Coordinator) restoreDone(js server.JobSpec, shardClusters int) ([]byte, Report, bool) {
	if c.spill == nil || js.Kind != server.KindSimulate || js.Simulate == nil {
		return nil, Report{}, false
	}
	spec := *js.Simulate
	if spec.ClusterFirst != 0 || spec.ClusterCount != 0 {
		return nil, Report{}, false
	}
	if err := spec.Validate(); err != nil {
		return nil, Report{}, false
	}
	if shardClusters <= 0 {
		shardClusters = c.cfg.ShardClusters
	}
	shards := shardsOf(spec, shardClusters)
	rep := Report{TotalClusters: spec.NumClusters(), Shards: make([]ShardStatus, len(shards))}
	parts := make([][]byte, len(shards))
	for i, sh := range shards {
		data, ok := c.spill.get(sh.key)
		if !ok {
			return nil, Report{}, false
		}
		c.cache.seed(sh.key, data)
		parts[i] = data
		rep.Shards[i] = ShardStatus{Index: sh.index, First: sh.first, Count: sh.count, CacheHit: true}
		rep.CacheHits++
		c.metrics.cacheHits.Inc()
		c.metrics.shardsDone.Inc()
	}
	return bytes.Join(parts, nil), rep, true
}
