package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dnastore/internal/client"
)

// The load report: the client-side outcome ledger reconciled against the
// server's counters, the capacity numbers, and the check that fails a run.

// loadConfig pins the workload shape a report was measured under.
type loadConfig struct {
	RPS        float64
	Jobs       int
	Seed       uint64
	Chaos      bool
	HugeFrac   float64
	DupFrac    float64
	CancelFrac float64
	FleetNodes int
}

// latencyMS is the client-observed submit→terminal latency distribution.
type latencyMS struct {
	P50 float64
	P95 float64
	P99 float64
}

// loadReport is one dnaload measurement: the client-side outcome ledger,
// the server-side counter reconciliation, and the capacity numbers.
type loadReport struct {
	Config loadConfig

	// Client-side terminal outcomes; Runs is their sum.
	Runs        int
	Succeeded   int
	Canceled    int
	ShedGaveUp  int
	ServerError int
	Deadline    int

	// Conservation: Lost counts work that vanished (a run without a
	// terminal outcome, or a client-held job ID the server never
	// counted); Duplicated counts jobs the server admitted beyond the
	// distinct IDs clients hold; Corrupted counts re-polled results that
	// differed from the first fetch. All must be zero.
	Lost       int
	Duplicated int
	Corrupted  int

	// Server-side counters over the drive window.
	DistinctJobs int
	Submitted    int
	Replays      int
	Shed         int

	LatencyMS      latencyMS
	ShedRate       float64
	ClustersPerSec float64
	ElapsedSec     float64

	ChaosStats string
}

// metricsSource snapshots the target server's counters — straight from
// the in-process registry, or scraped over HTTP for -target. The ground
// truth never crosses the chaos proxy.
type metricsSource func() (map[string]float64, error)

// scrapeMetrics parses the Prometheus text exposition at url into a
// series→value map (histogram and comment lines ride along harmlessly).
func scrapeMetrics(url string) metricsSource {
	return func() (map[string]float64, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out := make(map[string]float64)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp <= 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			out[line[:sp]] = v
		}
		return out, sc.Err()
	}
}

// finishedSum totals the server's terminal-outcome counters.
func finishedSum(snap map[string]float64) float64 {
	return snap[`dnasimd_jobs_finished_total{outcome="done"}`] +
		snap[`dnasimd_jobs_finished_total{outcome="failed"}`] +
		snap[`dnasimd_jobs_finished_total{outcome="canceled"}`] +
		snap[`dnasimd_jobs_finished_total{outcome="checkpointed"}`]
}

// reconcile closes the books between the client-side run ledger and the
// server's counter deltas over the drive window. The cross-check assumes
// dnaload was the target's only traffic source.
func reconcile(records []runRecord, before, after map[string]float64, cfg loadConfig, elapsed time.Duration) *loadReport {
	diff := func(name string) int { return int(after[name] - before[name]) }

	rep := &loadReport{
		Config:     cfg,
		Runs:       len(records),
		ElapsedSec: elapsed.Seconds(),
	}

	// Client ledger: every run must hold exactly one terminal outcome.
	// Duplicate-flavored arrivals legitimately share a job ID with their
	// original; the distinct-ID count is what reconciles against the
	// server.
	ids := make(map[string]bool) // id → some run succeeded
	for _, r := range records {
		switch r.res.Outcome {
		case client.OutcomeSucceeded:
			rep.Succeeded++
		case client.OutcomeCanceled:
			rep.Canceled++
		case client.OutcomeShedGaveUp:
			rep.ShedGaveUp++
		case client.OutcomeServerError:
			rep.ServerError++
		case client.OutcomeDeadline:
			rep.Deadline++
		case "corrupted":
			rep.Corrupted++
		default:
			rep.Lost++ // no terminal outcome: the run hung or vanished
		}
		if r.res.JobID != "" {
			ids[r.res.JobID] = ids[r.res.JobID] || r.res.Outcome == client.OutcomeSucceeded
		}
	}
	rep.DistinctJobs = len(ids)
	rep.Submitted = diff("dnasimd_jobs_submitted_total")
	rep.Replays = diff("dnasimd_jobs_idempotent_replays_total")
	rep.Shed = diff(`dnasimd_jobs_shed_total{reason="queue_full"}`) +
		diff(`dnasimd_jobs_shed_total{reason="draining"}`) +
		diff(`dnasimd_jobs_shed_total{reason="recovering"}`) +
		diff(`dnasimd_jobs_shed_total{reason="ledger_error"}`) +
		diff(`dnasimd_jobs_shed_total{reason="deadline_expired"}`)

	if rep.Submitted > rep.DistinctJobs {
		rep.Duplicated += rep.Submitted - rep.DistinctJobs
	}
	if rep.DistinctJobs > rep.Submitted {
		rep.Lost += rep.DistinctJobs - rep.Submitted
	}

	if accepted := rep.Shed + rep.Submitted + rep.Replays; accepted > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(accepted)
	}

	// Capacity: clusters the server completed per wall-clock second of
	// the drive window, counting each distinct job once however many
	// duplicate submissions rode on it.
	counted := make(map[string]bool)
	clusters := 0
	for _, r := range records {
		if r.res.Outcome == client.OutcomeSucceeded && !counted[r.res.JobID] {
			counted[r.res.JobID] = true
			clusters += r.clusters
		}
	}
	if elapsed > 0 {
		rep.ClustersPerSec = float64(clusters) / elapsed.Seconds()
	}

	lats := sortedLatencies(records)
	rep.LatencyMS = latencyMS{
		P50: float64(percentile(lats, 50)) / float64(time.Millisecond),
		P95: float64(percentile(lats, 95)) / float64(time.Millisecond),
		P99: float64(percentile(lats, 99)) / float64(time.Millisecond),
	}
	return rep
}

// Render formats the report as an aligned human-readable summary.
func (r *loadReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dnaload: %d arrivals at %.0f rps (chaos=%v fleet=%d) in %.1fs\n",
		r.Runs, r.Config.RPS, r.Config.Chaos, r.Config.FleetNodes, r.ElapsedSec)
	fmt.Fprintf(&b, "  outcomes   succeeded=%d canceled=%d shed-gave-up=%d server-error=%d deadline=%d\n",
		r.Succeeded, r.Canceled, r.ShedGaveUp, r.ServerError, r.Deadline)
	fmt.Fprintf(&b, "  ledger     distinct=%d submitted=%d replays=%d shed=%d  lost=%d duplicated=%d corrupted=%d\n",
		r.DistinctJobs, r.Submitted, r.Replays, r.Shed, r.Lost, r.Duplicated, r.Corrupted)
	fmt.Fprintf(&b, "  latency ms p50=%.0f p95=%.0f p99=%.0f   shed-rate=%.3f   clusters/s=%.0f\n",
		r.LatencyMS.P50, r.LatencyMS.P95, r.LatencyMS.P99, r.ShedRate, r.ClustersPerSec)
	if r.ChaosStats != "" {
		fmt.Fprintf(&b, "  chaos      %s\n", r.ChaosStats)
	}
	return b.String()
}

// check fails a run that lost, duplicated or corrupted any job, or in
// which no run succeeded: conservation holds trivially when nothing got
// through, so an all-shed or all-error run proves nothing.
func (r *loadReport) check() error {
	if r.Lost > 0 || r.Duplicated > 0 || r.Corrupted > 0 {
		return fmt.Errorf("conservation violated: lost=%d duplicated=%d corrupted=%d",
			r.Lost, r.Duplicated, r.Corrupted)
	}
	if r.Succeeded == 0 {
		return fmt.Errorf("zero of %d runs succeeded", r.Runs)
	}
	return nil
}
