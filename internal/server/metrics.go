package server

import (
	"fmt"
	"time"

	"dnastore/internal/obs"
)

// The server's metric surface, all registered on one obs.Registry and
// served from GET /metrics inside the server's own mux (so the chaos
// drills scrape counters through the same handler operators do).
//
// Naming scheme (documented in DESIGN.md §10): everything is prefixed
// dnasimd_, counters end in _total, histograms in the unit (_seconds),
// and low-cardinality dimensions ride labels — shed reason, terminal
// outcome, breaker target state, job kind, pipeline stage.
//
// The job-lifecycle series below belong to the front-end, so a single
// node and a fleet coordinator export the same names and label values.
// Executors add their own series beside them: the local executor's
// supervision counters, the coordinator's dnasimd_fleet_*.

// Shed reasons: the dnasimd_jobs_shed_total label values.
const (
	shedQueueFull = "queue_full"
	shedDraining  = "draining"
	shedDeadline  = "deadline_expired"
	// ShedLedgerError: the coordinator could not make the admission
	// durable in its write-ahead ledger.
	ShedLedgerError = "ledger_error"
	// shedRecovering: the front-end is still replaying durable state.
	// The coordinator replays inside its constructor, so no request can
	// see it today; the series exists so both modes export every reason
	// dnaload reconciles.
	shedRecovering = "recovering"
)

type frontMetrics struct {
	submitted   *obs.Counter
	idemReplays *obs.Counter
	shed        map[string]*obs.Counter
	finished    map[JobState]*obs.Counter
	jobSeconds  map[JobKind]*obs.Histogram
}

// jobBuckets cover the service's latency range: millisecond drills up to
// multi-minute full-scale simulations.
var jobBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300}

// newFrontMetrics registers the job-lifecycle series and the scrape-time
// gauges.
func newFrontMetrics(s *Server, reg *obs.Registry) *frontMetrics {
	m := &frontMetrics{shed: make(map[string]*obs.Counter)}
	m.submitted = reg.Counter("dnasimd_jobs_submitted_total",
		"Jobs admitted past validation and admission control.")
	for _, reason := range []string{shedQueueFull, shedDraining, shedRecovering, ShedLedgerError, shedDeadline} {
		m.shed[reason] = reg.Counter(fmt.Sprintf(`dnasimd_jobs_shed_total{reason=%q}`, reason),
			"Submissions refused at admission (503 + Retry-After, or 504 past the deadline), by reason.")
	}
	m.idemReplays = reg.Counter("dnasimd_jobs_idempotent_replays_total",
		"Submissions answered with an already-admitted job via Idempotency-Key.")
	m.finished = make(map[JobState]*obs.Counter)
	for _, st := range []JobState{StateDone, StateFailed, StateCanceled, StateCheckpointed} {
		m.finished[st] = reg.Counter(fmt.Sprintf(`dnasimd_jobs_finished_total{outcome=%q}`, st),
			"Jobs reaching a terminal state, by outcome.")
	}
	m.jobSeconds = make(map[JobKind]*obs.Histogram)
	for _, k := range []JobKind{KindSimulate, KindRetrieve} {
		m.jobSeconds[k] = reg.Histogram(fmt.Sprintf(`dnasimd_job_seconds{kind=%q}`, k),
			"Job latency from admission to terminal state, by kind.", jobBuckets)
	}

	// Scrape-time gauges read the live tallies and the job table.
	reg.GaugeFunc("dnasimd_queue_depth", "Jobs admitted and waiting to execute.",
		func() float64 { return float64(s.counts.queued.Load()) })
	reg.GaugeFunc("dnasimd_jobs_running", "Jobs currently executing.",
		func() float64 { return float64(s.counts.running.Load()) })
	reg.GaugeFunc("dnasimd_jobs_tracked", "Jobs known to the server (all states).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	return m
}

// observeFinish records a job's terminal transition. Called exactly once
// per job (finish is idempotent and reports whether it transitioned).
func (m *frontMetrics) observeFinish(j *Job, state JobState) {
	if c := m.finished[state]; c != nil {
		c.Inc()
	}
	if h := m.jobSeconds[j.Spec.Kind]; h != nil {
		h.Observe(time.Since(j.created).Seconds())
	}
}

// localMetrics are the local executor's supervision series.
type localMetrics struct {
	reg         *obs.Registry
	kills       *obs.Counter
	requeues    *obs.Counter
	breakerTo   map[BreakerState]*obs.Counter
	attemptSecs *obs.Histogram
}

func newLocalMetrics(e *localExec, reg *obs.Registry) localMetrics {
	m := localMetrics{reg: reg, breakerTo: make(map[BreakerState]*obs.Counter)}
	m.kills = reg.Counter("dnasimd_watchdog_kills_total",
		"Attempts killed by the stall watchdog for lack of cluster progress.")
	m.requeues = reg.Counter("dnasimd_job_requeues_total",
		"Supervised requeues after a failed or killed attempt.")
	for _, st := range []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed} {
		m.breakerTo[st] = reg.Counter(fmt.Sprintf(`dnasimd_breaker_transitions_total{to=%q}`, st),
			"Circuit breaker state transitions, by target state.")
	}
	m.attemptSecs = reg.Histogram("dnasimd_attempt_seconds",
		"Latency of a single supervised execution attempt.", jobBuckets)
	reg.GaugeFunc("dnasimd_breaker_open", "1 while the I/O circuit breaker is open.",
		func() float64 {
			if e.breaker.State() == BreakerOpen {
				return 1
			}
			return 0
		})
	return m
}

// observeStages folds one attempt's stage-timer account into the per-stage
// histograms and item counters. Stage series are registered lazily: the
// set of stages is small and bounded by the instrumented code, not by
// request content.
func (m *localMetrics) observeStages(timings []obs.StageTiming) {
	for _, st := range timings {
		m.reg.Histogram(fmt.Sprintf(`dnasimd_stage_seconds{stage=%q}`, st.Stage),
			"Per-attempt wall time by pipeline stage.", jobBuckets).Observe(st.Wall.Seconds())
		if st.Items > 0 {
			m.reg.Counter(fmt.Sprintf(`dnasimd_stage_items_total{stage=%q}`, st.Stage),
				"Work items processed by pipeline stage (clusters, reads, strands).").Add(uint64(st.Items))
		}
	}
}
