package main

import (
	"errors"
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// statistics.quantiles([4, 1], n=4) == [0.25, 2.5, 4.75]
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1
	}
	// p75 of 1..40 is the 30th value: ten samples lie beyond it.
	if got := percentile(xs, 75); got != 30 {
		t.Errorf("p75 = %v, want 30", got)
	}
	if got := percentile(xs, 100); got != 40 {
		t.Errorf("p100 = %v, want 40", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 39: 50, 40: 75, 100: 90, 199: 90, 200: 95, 400: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// fakeSet builds a run set of one workload whose runs carry the given
// latency_ms_p50 values; every other metric is constant.
func fakeSet(lat []float64) *RunSet {
	set := &RunSet{Schema: runSetSchema, Host: Host{GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2}, Definition: "d1"}
	for _, v := range lat {
		set.Runs = append(set.Runs, Run{
			Workload: "simulate", Seed: 1, Attempted: 50, Correct: true,
			Metrics: map[string]float64{"setup_s": 0.7, "latency_ms_p50": v, "latency_ms_tail": 2 * v, "second_op_ms_p50": 400, "rss_mb": 200},
			Outputs: map[string]string{"simulate/tier4": "abc"},
		})
	}
	return set
}

// testMetrics are the end-to-end metrics with tighter bounds than the
// host's noise lets the benchmark itself use, so a 25% change is beyond
// them.
var testMetrics = func() []metricDef {
	ms := append([]metricDef(nil), e2eMetrics...)
	for i := range ms {
		ms[i].Bound = 0.10
	}
	return ms
}()

func verdicts(t *testing.T, a, b *RunSet) (map[string]string, []string) {
	t.Helper()
	rows, problems, err := compareSets(a, b, testMetrics)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r.Metric] = r.Verdict
	}
	return out, problems
}

var steady = []float64{180, 182, 179, 181, 183, 180, 178, 182, 181, 180}

func TestCompareIdenticalSetsPass(t *testing.T) {
	v, problems := verdicts(t, fakeSet(steady), fakeSet(steady))
	for m, verdict := range v {
		if verdict != verdictWithin {
			t.Errorf("%s: %s, want %s", m, verdict, verdictWithin)
		}
	}
	if len(problems) > 0 {
		t.Errorf("problems: %v", problems)
	}
}

func TestCompareCatchesSlowdown(t *testing.T) {
	slow := make([]float64, len(steady))
	for i, x := range steady {
		slow[i] = 1.25 * x
	}
	v, _ := verdicts(t, fakeSet(steady), fakeSet(slow))
	if v["latency_ms_p50"] != verdictWorse || v["latency_ms_tail"] != verdictWorse {
		t.Errorf("25%% slowdown: %v", v)
	}
	if v["setup_s"] != verdictWithin {
		t.Errorf("unchanged setup_s: %s", v["setup_s"])
	}
	// The same change the other way round is a gain.
	v, _ = verdicts(t, fakeSet(slow), fakeSet(steady))
	if v["latency_ms_p50"] != verdictBetter {
		t.Errorf("25%% speed-up: %s", v["latency_ms_p50"])
	}
}

func TestCompareWideSpreadIsUnresolved(t *testing.T) {
	wide := []float64{120, 260, 150, 240, 180, 200, 130, 250, 170, 210}
	shifted := make([]float64, len(wide))
	for i, x := range wide {
		shifted[i] = x + 15
	}
	v, _ := verdicts(t, fakeSet(wide), fakeSet(shifted))
	if v["latency_ms_p50"] != verdictUnresolved {
		t.Errorf("wide spread: %s, want %s", v["latency_ms_p50"], verdictUnresolved)
	}
}

func TestCompareRefusesMismatchedRunSets(t *testing.T) {
	for name, change := range map[string]func(*RunSet){
		"go version": func(s *RunSet) { s.Host.GoVersion = "go1.23.0" },
		"GOMAXPROCS": func(s *RunSet) { s.Host.GOMAXPROCS = 1 },
		"definition": func(s *RunSet) { s.Definition = "d2" },
	} {
		b := fakeSet(steady)
		change(b)
		if _, _, err := compareSets(fakeSet(steady), b, testMetrics); !errors.Is(err, errMismatch) {
			t.Errorf("%s mismatch: err = %v, want errMismatch", name, err)
		}
	}
}

func TestCompareFlagsFailuresAndDifferentOutputs(t *testing.T) {
	b := fakeSet(steady)
	b.Runs[0].Failed = 1
	for i := range b.Runs {
		b.Runs[i].Outputs = map[string]string{"simulate/tier4": "abd"}
	}
	_, problems := verdicts(t, fakeSet(steady), b)
	if len(problems) != 2 {
		t.Errorf("problems = %v, want a failed-share rise and an output mismatch", problems)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []Span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps a
		{Name: "c", ID: 4, Parent: 3, Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 30, 3: 20, 4: 10} {
		if got := int64(self[id]); got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestSummarizeSpread(t *testing.T) {
	s := summarize([]float64{90, 100, 110})
	if s.Median != 100 || math.Abs(s.Spread-0.2) > 1e-12 || s.N != 3 {
		t.Errorf("summary %+v", s)
	}
}
