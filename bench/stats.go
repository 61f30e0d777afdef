package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strings"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// default), so these numbers match any independent check made with it.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailPercentile picks the percentile a latency tail is reported at: the
// highest candidate that leaves at least ten of n samples beyond it, so a
// tail number never rests on one or two outliers. Candidates are in per
// mille so the count test is exact integer arithmetic.
func tailPercentile(n int) float64 {
	for _, pm := range []int{999, 990, 950, 900, 750} {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// Summary is a metric's distribution over the runs of one workload.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Spread is (max − min) ÷ median.
	Spread float64 `json:"spread"`
}

func summarize(xs []float64) Summary {
	q1, med, q3 := quartiles(xs)
	s := Summary{Median: med, Q1: q1, Q3: q3, N: len(xs)}
	if len(xs) > 0 && med != 0 {
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		s.Spread = (hi - lo) / math.Abs(med)
	}
	return s
}

// Host is the configuration a run set was measured on. Runs measured on
// different hosts do not compare.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
}

// Run is one process's measurement of one workload.
type Run struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	// Outputs names each checked output by its SHA-256 (hex).
	Outputs map[string]string `json:"outputs"`
}

// RunSet is what -out writes and -compare reads: the runs of one or more
// workloads and their summaries. Definition is the hash of the workload
// definition the runs were measured with.
type RunSet struct {
	Schema     string `json:"schema"`
	Host       Host   `json:"host"`
	Definition string `json:"definition"`
	Runs       []Run  `json:"runs"`
	// Baseline and LayerBaseline summarise the untraced end-to-end metrics
	// and the traced per-layer metrics by workload, then metric.
	Baseline      map[string]map[string]Summary `json:"baseline"`
	LayerBaseline map[string]map[string]Summary `json:"layer_baseline,omitempty"`
	// TraceOverhead is, per workload and end-to-end metric, the traced
	// median against the untraced median, as a signed fraction where a
	// positive value means tracing made the metric worse.
	TraceOverhead map[string]map[string]float64 `json:"trace_overhead,omitempty"`
}

const runSetSchema = "dnastore-bench/v1"

// summarizeRuns fills the summary fields from the runs.
func (rs *RunSet) summarizeRuns() {
	rs.Baseline = map[string]map[string]Summary{}
	rs.LayerBaseline = map[string]map[string]Summary{}
	rs.TraceOverhead = map[string]map[string]float64{}
	for _, w := range rs.workloads() {
		plain, traced := rs.values(w, false, false), rs.values(w, true, false)
		rs.Baseline[w] = map[string]Summary{}
		for name, xs := range plain {
			rs.Baseline[w][name] = summarize(xs)
		}
		layers := rs.values(w, true, true)
		if len(layers) == 0 {
			continue
		}
		rs.LayerBaseline[w] = map[string]Summary{}
		for name, xs := range layers {
			rs.LayerBaseline[w][name] = summarize(xs)
		}
		rs.TraceOverhead[w] = map[string]float64{}
		for _, m := range e2eMetrics {
			if len(plain[m.Name]) > 0 && len(traced[m.Name]) > 0 {
				rs.TraceOverhead[w][m.Name] = m.worsening(median(plain[m.Name]), median(traced[m.Name]))
			}
		}
	}
}

// workloads lists the workloads in the set, in first-run order.
func (rs *RunSet) workloads() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rs.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// values gathers, in run order, each metric of the workload's traced or
// untraced runs: their end-to-end metrics, or their per-layer ones.
func (rs *RunSet) values(workload string, traced, layers bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rs.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		m := r.Metrics
		if layers {
			m = r.Layers
		}
		for name, v := range m {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// failedShare is failed ÷ attempted over the workload's runs.
func (rs *RunSet) failedShare(workload string) float64 {
	att, fail := 0, 0
	for _, r := range rs.Runs {
		if r.Workload == workload {
			att += r.Attempted
			fail += r.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

// outputsBySeed returns, per seed, the output hashes of the workload's
// runs, and an error when two runs of one seed produced different bytes.
func (rs *RunSet) outputsBySeed(workload string) (map[uint64]map[string]string, error) {
	out := map[uint64]map[string]string{}
	for _, r := range rs.Runs {
		if r.Workload != workload {
			continue
		}
		prev, ok := out[r.Seed]
		if !ok {
			out[r.Seed] = r.Outputs
			continue
		}
		if !maps.Equal(prev, r.Outputs) {
			return nil, fmt.Errorf("%s: runs of seed %d produced different outputs", workload, r.Seed)
		}
	}
	return out, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictWorse      = "worse beyond bound"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
	verdictBetter     = "better"
)

// CompareRow is the comparison of one end-to-end metric on one workload.
type CompareRow struct {
	Workload, Metric string
	A, B             Summary
	// Worsening is B's median against A's as a signed fraction; positive
	// means B is worse in the metric's direction.
	Worsening float64
	Verdict   string
}

// errMismatch marks run sets that must not be compared.
var errMismatch = errors.New("run sets are not comparable")

// compareSets compares run set b (the change) against a (the parent), one
// row per workload and metric of metrics, over the untraced runs. It
// refuses sets measured on different go versions or GOMAXPROCS, or with
// different workload definitions. problems lists what fails the
// comparison besides the rows: a larger share of failed operations, or
// outputs that differ for the same seed.
func compareSets(a, b *RunSet, metrics []metricDef) (rows []CompareRow, problems []string, err error) {
	switch {
	case a.Host.GoVersion != b.Host.GoVersion:
		return nil, nil, fmt.Errorf("%w: go version %s vs %s", errMismatch, a.Host.GoVersion, b.Host.GoVersion)
	case a.Host.GOMAXPROCS != b.Host.GOMAXPROCS:
		return nil, nil, fmt.Errorf("%w: GOMAXPROCS %d vs %d", errMismatch, a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	case a.Definition != b.Definition:
		return nil, nil, fmt.Errorf("%w: workload definitions differ (%s vs %s)", errMismatch, a.Definition, b.Definition)
	}
	for _, w := range a.workloads() {
		va, vb := a.values(w, false, false), b.values(w, false, false)
		if len(vb) == 0 {
			problems = append(problems, fmt.Sprintf("%s: no untraced runs in the second set", w))
			continue
		}
		for _, m := range metrics {
			xa, xb := va[m.Name], vb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			rows = append(rows, m.compare(w, xa, xb))
		}
		if fa, fb := a.failedShare(w), b.failedShare(w); fb > fa {
			problems = append(problems, fmt.Sprintf("%s: failed share rose from %.4f to %.4f", w, fa, fb))
		}
		oa, errA := a.outputsBySeed(w)
		ob, errB := b.outputsBySeed(w)
		if err := errors.Join(errA, errB); err != nil {
			problems = append(problems, err.Error())
			continue
		}
		for seed, outA := range oa {
			if outB, ok := ob[seed]; ok && !maps.Equal(outA, outB) {
				problems = append(problems, fmt.Sprintf("%s: seed %d outputs differ between the sets", w, seed))
			}
		}
	}
	return rows, problems, nil
}

// worsening is how much worse b is than a, as a signed fraction of a.
func (m metricDef) worsening(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// allowance is the absolute amount the metric may worsen from base.
func (m metricDef) allowance(base float64) float64 {
	return max(m.Bound*math.Abs(base), m.Floor)
}

// beats reports whether x is strictly better than y in the metric's
// direction.
func (m metricDef) beats(x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// compare gives the verdict on one metric. Where either side's spread
// (its quartile distance) is wider than the allowance, the medians cannot
// resolve a change of that size, so the verdict is unresolved unless every
// run of one side beats every run of the other. A gain counts only when B
// wins at least nine in ten run pairs and the medians differ by more than
// A's own quartile distance.
func (m metricDef) compare(workload string, xa, xb []float64) CompareRow {
	row := CompareRow{Workload: workload, Metric: m.Name, A: summarize(xa), B: summarize(xb)}
	row.Worsening = m.worsening(row.A.Median, row.B.Median)
	allow := m.allowance(row.A.Median)
	iqrA, iqrB := row.A.Q3-row.A.Q1, row.B.Q3-row.B.Q1
	gap := math.Abs(row.B.Median - row.A.Median)
	switch {
	case max(iqrA, iqrB) > allow:
		row.Verdict = verdictUnresolved
		if m.dominates(xb, xa) {
			row.Verdict = verdictBetter
		} else if m.dominates(xa, xb) {
			row.Verdict = verdictWorse
		}
	case row.Worsening > 0 && gap > allow:
		row.Verdict = verdictWorse
	case row.Worsening < 0 && gap > iqrA && m.pairWins(xb, xa) >= 0.9:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictWithin
	}
	return row
}

// dominates reports whether every x beats every y.
func (m metricDef) dominates(xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !m.beats(x, y) {
				return false
			}
		}
	}
	return true
}

// pairWins is the share of run pairs (xs[i], ys[i]) in which x beats y;
// ties count for neither side.
func (m metricDef) pairWins(xs, ys []float64) float64 {
	n := min(len(xs), len(ys))
	if n == 0 {
		return 0
	}
	wins := 0
	for i := 0; i < n; i++ {
		if m.beats(xs[i], ys[i]) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// renderCompare writes the comparison table and reports whether it passes:
// no row worse or unresolved, and no problems.
func renderCompare(w io.Writer, rows []CompareRow, problems []string) bool {
	ok := len(problems) == 0
	fmt.Fprintf(w, "%-9s %-17s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "A iqr", "B iqr", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-17s %14.4f %14.4f %+8.2f%% %6.2f%% %6.2f%%  %s\n",
			r.Workload, r.Metric, r.A.Median, r.B.Median, 100*r.Worsening,
			100*relIQR(r.A), 100*relIQR(r.B), r.Verdict)
		if r.Verdict == verdictWorse || r.Verdict == verdictUnresolved {
			ok = false
		}
	}
	if len(problems) > 0 {
		fmt.Fprintf(w, "problems:\n  %s\n", strings.Join(problems, "\n  "))
	}
	return ok
}

// relIQR is the quartile distance as a share of the median.
func relIQR(s Summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
