package metrics

import (
	"math"
	"strings"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
)

func simDS(rate float64, seed uint64) *dataset.Dataset {
	refs := channel.RandomReferences(60, 110, 7)
	sim := channel.Simulator{
		Channel:  channel.NewNaive("n", channel.EqualMix(rate)),
		Coverage: channel.FixedCoverage(4),
	}
	return sim.Simulate("d", refs, seed)
}

func TestCompareDatasetsSelf(t *testing.T) {
	a := simDS(0.05, 1)
	d, err := CompareDatasets(a, a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.MeanNormEdit != 0 || d.MeanGestalt != 1 {
		t.Errorf("self-distance = %+v", d)
	}
	if d.Pairs != 180 {
		t.Errorf("pairs = %d", d.Pairs)
	}
	if !strings.Contains(d.String(), "norm-edit") {
		t.Errorf("String = %q", d.String())
	}
}

func TestCompareDatasetsOrdersByErrorRate(t *testing.T) {
	// Distance from a clean dataset should grow with the other dataset's
	// error rate.
	refs := channel.RandomReferences(60, 110, 7)
	clean := channel.Simulator{
		Channel:  channel.NewNaive("c", channel.Rates{}),
		Coverage: channel.FixedCoverage(4),
	}.Simulate("clean", refs, 2)
	low := simDS(0.03, 3)
	high := simDS(0.12, 4)
	dLow, err := CompareDatasets(clean, low, 3)
	if err != nil {
		t.Fatal(err)
	}
	dHigh, err := CompareDatasets(clean, high, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dLow.MeanNormEdit >= dHigh.MeanNormEdit {
		t.Errorf("edit distance not monotone: %v vs %v", dLow.MeanNormEdit, dHigh.MeanNormEdit)
	}
	if dLow.MeanGestalt <= dHigh.MeanGestalt {
		t.Errorf("gestalt similarity not monotone: %v vs %v", dLow.MeanGestalt, dHigh.MeanGestalt)
	}
}

func TestCompareDatasetsErrors(t *testing.T) {
	a := simDS(0.05, 1)
	b := &dataset.Dataset{Clusters: a.Clusters[:10]}
	if _, err := CompareDatasets(a, b, 3); err == nil {
		t.Error("cluster count mismatch accepted")
	}
	c := a.Clone()
	c.Clusters[0].Ref = "ACGT"
	if _, err := CompareDatasets(a, c, 3); err == nil {
		t.Error("reference mismatch accepted")
	}
	empty := &dataset.Dataset{}
	if _, err := CompareDatasets(empty, empty, 3); err == nil {
		t.Error("empty datasets accepted")
	}
}

func TestReadLengthHistogram(t *testing.T) {
	ds := &dataset.Dataset{Clusters: []dataset.Cluster{
		{Ref: "ACGT", Reads: []dna.Strand{"ACGT", "ACG", "ACGT"}},
	}}
	h := ReadLengthHistogram(ds)
	if h[4] != 2 || h[3] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestLengthHistogramDistance(t *testing.T) {
	delHeavy := channel.Simulator{
		Channel:  channel.NewNaive("d", channel.Rates{Del: 0.1}),
		Coverage: channel.FixedCoverage(4),
	}.Simulate("del", channel.RandomReferences(60, 110, 7), 5)
	insHeavy := channel.Simulator{
		Channel:  channel.NewNaive("i", channel.Rates{Ins: 0.1}),
		Coverage: channel.FixedCoverage(4),
	}.Simulate("ins", channel.RandomReferences(60, 110, 7), 6)
	same := LengthHistogramDistance(delHeavy, delHeavy)
	diff := LengthHistogramDistance(delHeavy, insHeavy)
	if same != 0 {
		t.Errorf("self length distance = %v", same)
	}
	if diff < 0.5 {
		t.Errorf("del-vs-ins length distance = %v, want large", diff)
	}
}

// emptyDS builds a dataset whose clusters have references but zero reads —
// the shape a total-dropout fault or an unsequenced pool produces.
func emptyDS(n int) *dataset.Dataset {
	refs := channel.RandomReferences(n, 110, 7)
	ds := &dataset.Dataset{Name: "empty", Clusters: make([]dataset.Cluster, n)}
	for i := range ds.Clusters {
		ds.Clusters[i].Ref = refs[i]
	}
	return ds
}

// TestLengthHistogramDistanceEmptyDatasets is the regression test for the
// zero-read normalisation bug: a dataset with no reads must yield defined,
// non-NaN distances — 0 against another empty dataset, the maximal 1
// against a populated one.
func TestLengthHistogramDistanceEmptyDatasets(t *testing.T) {
	empty1, empty2 := emptyDS(10), emptyDS(5)
	full := simDS(0.05, 1)

	if d := LengthHistogramDistance(empty1, empty2); d != 0 {
		t.Errorf("empty vs empty = %v, want 0", d)
	}
	for name, d := range map[string]float64{
		"empty vs full": LengthHistogramDistance(empty1, full),
		"full vs empty": LengthHistogramDistance(full, empty1),
	} {
		if math.IsNaN(d) {
			t.Errorf("%s = NaN", name)
		}
		if d != 1 {
			t.Errorf("%s = %v, want maximal distance 1", name, d)
		}
	}
	// Sanity: the defined maximum dominates every real-vs-real distance.
	if d := LengthHistogramDistance(full, simDS(0.30, 9)); math.IsNaN(d) || d >= 1 {
		t.Errorf("real-vs-real distance = %v, want < 1 and not NaN", d)
	}
}

// TestNormalizeAllZero pins that an all-zero vector normalises to zeros
// (not NaNs) and that χ² over two such vectors is 0.
func TestNormalizeAllZero(t *testing.T) {
	z := Normalize([]float64{0, 0, 0})
	for i, v := range z {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("Normalize zero vector [%d] = %v", i, v)
		}
	}
	if d := ChiSquare(z, z); d != 0 || math.IsNaN(d) {
		t.Errorf("ChiSquare(zeros, zeros) = %v, want 0", d)
	}
}
