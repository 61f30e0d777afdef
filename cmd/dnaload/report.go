package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dnastore/internal/client"
)

// The BENCH_serve.json schema and the regression gate. Field names are
// stable: CI archives the report per commit and `make loadcheck` diffs a
// fresh measurement against the committed baseline, the same contract
// BENCH_sim.json has for the simulate hot path.
//
// The file holds named entries ("dnaload/v2") so single-server and fleet
// measurements live side by side and regress independently.

// loadConfig pins the workload shape a report was measured under.
type loadConfig struct {
	RPS        float64 `json:"rps"`
	Jobs       int     `json:"jobs"`
	Seed       uint64  `json:"seed"`
	Chaos      bool    `json:"chaos"`
	HugeFrac   float64 `json:"huge_frac"`
	DupFrac    float64 `json:"dup_frac"`
	CancelFrac float64 `json:"cancel_frac"`
	Workers    int     `json:"workers"`
	Queue      int     `json:"queue"`
	FleetNodes int     `json:"fleet_nodes,omitempty"`
}

// latencyMS is the client-observed submit→terminal latency distribution.
type latencyMS struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// loadReport is one dnaload measurement: the client-side outcome ledger,
// the server-side counter reconciliation, and the capacity numbers.
type loadReport struct {
	Name   string     `json:"name"`
	Config loadConfig `json:"config"`

	// Client-side terminal outcomes; Runs is their sum.
	Runs        int `json:"runs"`
	Succeeded   int `json:"succeeded"`
	Canceled    int `json:"canceled"`
	ShedGaveUp  int `json:"shed_gave_up"`
	ServerError int `json:"server_error"`
	Deadline    int `json:"deadline"`

	// Conservation: Lost counts work that vanished (a run without a
	// terminal outcome, or a client-held job ID the server never
	// counted); Duplicated counts jobs the server admitted beyond the
	// distinct IDs clients hold; Corrupted counts re-polled results that
	// differed from the first fetch. All must be zero.
	Lost       int `json:"lost"`
	Duplicated int `json:"duplicated"`
	Corrupted  int `json:"corrupted"`

	// Server-side counters over the drive window.
	DistinctJobs int `json:"distinct_jobs"`
	Submitted    int `json:"submitted"`
	Replays      int `json:"replays"`
	Shed         int `json:"shed"`

	LatencyMS      latencyMS `json:"latency_ms"`
	ShedRate       float64   `json:"shed_rate"`
	ClustersPerSec float64   `json:"clusters_per_sec"`
	ElapsedSec     float64   `json:"elapsed_sec"`

	ChaosStats string `json:"chaos_stats,omitempty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
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
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
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
	fmt.Fprintf(&b, "dnaload[%s]: %d arrivals at %.0f rps (chaos=%v fleet=%d) in %.1fs\n",
		r.Name, r.Runs, r.Config.RPS, r.Config.Chaos, r.Config.FleetNodes, r.ElapsedSec)
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

// loadFile is the on-disk "dnaload/v2" container: one entry per named
// measurement (e.g. "single", "fleet").
type loadFile struct {
	Schema  string        `json:"schema"`
	Entries []*loadReport `json:"entries"`
}

// parseLoadFile reads a "dnaload/v2" multi-entry file; any other schema
// is an error.
func parseLoadFile(path string, data []byte) (*loadFile, error) {
	var f loadFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: not a dnaload report: %w", path, err)
	}
	if f.Schema != "dnaload/v2" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, f.Schema)
	}
	for _, e := range f.Entries {
		if e.Name == "" {
			e.Name = "single"
		}
	}
	return &f, nil
}

// write lands the report at path as a v2 file, replacing the same-named
// entry and preserving the others — so the single-server and fleet drives
// can refresh one committed BENCH_serve.json independently.
func (r *loadReport) write(path string) error {
	f := &loadFile{Schema: "dnaload/v2"}
	if data, err := os.ReadFile(path); err == nil {
		if prev, perr := parseLoadFile(path, data); perr == nil {
			f.Entries = prev.Entries
		}
	}
	entry := *r
	if entry.Name == "" {
		entry.Name = "single"
	}
	replaced := false
	for i, e := range f.Entries {
		if e.Name == entry.Name {
			f.Entries[i] = &entry
			replaced = true
			break
		}
	}
	if !replaced {
		f.Entries = append(f.Entries, &entry)
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// loadLoadBaseline reads the named entry from a committed BENCH_serve.json.
func loadLoadBaseline(path, name string) (*loadReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parseLoadFile(path, data)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range f.Entries {
		if e.Name == name {
			return e, nil
		}
		names = append(names, e.Name)
	}
	return nil, fmt.Errorf("%s: no %q entry (have: %s); run once with -out but without -compare to seed it",
		path, name, strings.Join(names, ", "))
}

// compareLoad gates a fresh report against the committed baseline.
// Conservation is absolute (checked by the caller before any baseline
// math); the capacity gates are deliberately loose — CI machines vary —
// so they catch collapses, not noise: p95 may grow by p95Factor plus a
// fixed 100ms grace, throughput may fall to tputFrac of baseline, shed
// rate may rise by shedSlack absolute.
func compareLoad(base, cur *loadReport, p95Factor, tputFrac, shedSlack float64) error {
	var violations []string
	fmt.Fprintf(os.Stderr, "dnaload comparison (baseline vs current):\n")
	fmt.Fprintf(os.Stderr, "  %-16s %10s %10s\n", "", "baseline", "current")
	fmt.Fprintf(os.Stderr, "  %-16s %10.0f %10.0f  (gate: <= %.0f)\n", "p95 ms",
		base.LatencyMS.P95, cur.LatencyMS.P95, base.LatencyMS.P95*p95Factor+100)
	fmt.Fprintf(os.Stderr, "  %-16s %10.0f %10.0f  (gate: >= %.0f)\n", "clusters/s",
		base.ClustersPerSec, cur.ClustersPerSec, base.ClustersPerSec*tputFrac)
	fmt.Fprintf(os.Stderr, "  %-16s %10.3f %10.3f  (gate: <= %.3f)\n", "shed rate",
		base.ShedRate, cur.ShedRate, base.ShedRate+shedSlack)

	if cur.LatencyMS.P95 > base.LatencyMS.P95*p95Factor+100 {
		violations = append(violations, fmt.Sprintf("p95 latency %.0fms exceeds %.0fms baseline by more than %.1fx+100ms",
			cur.LatencyMS.P95, base.LatencyMS.P95, p95Factor))
	}
	if base.ClustersPerSec > 0 && cur.ClustersPerSec < base.ClustersPerSec*tputFrac {
		violations = append(violations, fmt.Sprintf("throughput %.0f clusters/s fell below %.0f%% of baseline %.0f",
			cur.ClustersPerSec, tputFrac*100, base.ClustersPerSec))
	}
	if cur.ShedRate > base.ShedRate+shedSlack {
		violations = append(violations, fmt.Sprintf("shed rate %.3f exceeds baseline %.3f by more than %.2f",
			cur.ShedRate, base.ShedRate, shedSlack))
	}
	if cur.Succeeded == 0 {
		violations = append(violations, "zero runs succeeded")
	}
	if len(violations) > 0 {
		return fmt.Errorf("load regression gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}
