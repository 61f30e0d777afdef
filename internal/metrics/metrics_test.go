package metrics

import (
	"math"
	"strings"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dna"
)

func TestComputeAccuracyPerfect(t *testing.T) {
	refs := []dna.Strand{"ACGT", "TTTT"}
	a := ComputeAccuracy(refs, refs)
	if a.PerStrand != 100 || a.PerChar != 100 {
		t.Errorf("accuracy = %+v", a)
	}
	if a.Strands != 2 || a.Chars != 8 {
		t.Errorf("counts = %+v", a)
	}
}

func TestComputeAccuracyPartial(t *testing.T) {
	refs := []dna.Strand{"ACGT", "ACGT"}
	recons := []dna.Strand{"ACGT", "ACGA"} // second has 3/4 correct
	a := ComputeAccuracy(refs, recons)
	if a.PerStrand != 50 {
		t.Errorf("per-strand = %v", a.PerStrand)
	}
	if math.Abs(a.PerChar-87.5) > 1e-9 {
		t.Errorf("per-char = %v", a.PerChar)
	}
}

func TestComputeAccuracyErasure(t *testing.T) {
	refs := []dna.Strand{"ACGT"}
	recons := []dna.Strand{""}
	a := ComputeAccuracy(refs, recons)
	if a.PerStrand != 0 || a.PerChar != 0 {
		t.Errorf("erasure accuracy = %+v", a)
	}
}

func TestComputeAccuracyLengthMismatchRecon(t *testing.T) {
	// Longer reconstruction: only positions within the reference count.
	refs := []dna.Strand{"ACGT"}
	recons := []dna.Strand{"ACGTAA"}
	a := ComputeAccuracy(refs, recons)
	if a.PerStrand != 0 {
		t.Error("longer recon counted as perfect")
	}
	if a.PerChar != 100 {
		t.Errorf("per-char = %v, want 100 (all 4 ref chars correct)", a.PerChar)
	}
}

func TestComputeAccuracyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on slice length mismatch")
		}
	}()
	ComputeAccuracy([]dna.Strand{"A"}, nil)
}

func TestComputeAccuracyEmpty(t *testing.T) {
	a := ComputeAccuracy(nil, nil)
	if a.PerStrand != 0 || a.PerChar != 0 {
		t.Errorf("empty accuracy = %+v", a)
	}
	if !strings.Contains(a.String(), "per-strand") {
		t.Error("String format")
	}
}

func TestPositionProfileAddAndRates(t *testing.T) {
	p := NewPositionProfile(4)
	p.add([]int{0, 2, 2, 7, -1}) // 7 clamps to last bin (4), -1 to 0
	if p.Pairs != 1 {
		t.Errorf("pairs = %d", p.Pairs)
	}
	if p.Counts[0] != 2 || p.Counts[2] != 2 || p.Counts[4] != 1 {
		t.Errorf("counts = %v", p.Counts)
	}
	if p.Total() != 5 {
		t.Errorf("total = %d", p.Total())
	}
	rates := p.Rates()
	if rates[2] != 2 {
		t.Errorf("rates = %v", rates)
	}
	empty := NewPositionProfile(3)
	for _, r := range empty.Rates() {
		if r != 0 {
			t.Error("empty profile rates nonzero")
		}
	}
}

func TestHammingProfilePropagation(t *testing.T) {
	// A deletion at position 1 makes every later position a Hamming error.
	refs := []dna.Strand{"ACGTACGT"}
	reads := []dna.Strand{"AGTACGT"} // C deleted
	prof := HammingProfile(refs, reads, 8)
	// Positions 1..6 mismatch, plus one length-mismatch error at read end.
	for p := 1; p <= 6; p++ {
		if prof.Counts[p] != 1 {
			t.Errorf("position %d count = %d", p, prof.Counts[p])
		}
	}
	if prof.Counts[0] != 0 {
		t.Errorf("position 0 count = %d", prof.Counts[0])
	}
	g := GestaltProfile(refs, reads, 8)
	if g.Total() != 1 || g.Counts[1] != 1 {
		t.Errorf("gestalt profile = %v", g.Counts)
	}
}

func TestProfilesSkipErasures(t *testing.T) {
	refs := []dna.Strand{"ACGT", "ACGT"}
	reads := []dna.Strand{"", "ACGT"}
	h := HammingProfile(refs, reads, 4)
	if h.Pairs != 1 || h.Total() != 0 {
		t.Errorf("hamming pairs=%d total=%d", h.Pairs, h.Total())
	}
	g := GestaltProfile(refs, reads, 4)
	if g.Pairs != 1 || g.Total() != 0 {
		t.Errorf("gestalt pairs=%d total=%d", g.Pairs, g.Total())
	}
}

func TestClusterProfiles(t *testing.T) {
	refs := []dna.Strand{"ACGT", "TTTT"}
	clusters := [][]dna.Strand{
		{"ACGT", "ACGA"},
		{"TTTT"},
	}
	h := ClusterHammingProfile(refs, clusters, 4)
	if h.Pairs != 3 {
		t.Errorf("pairs = %d", h.Pairs)
	}
	if h.Counts[3] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	g := ClusterGestaltProfile(refs, clusters, 4)
	if g.Total() != 1 {
		t.Errorf("gestalt total = %d", g.Total())
	}
}

func TestChiSquare(t *testing.T) {
	a := []float64{1, 2, 3}
	if ChiSquare(a, a) != 0 {
		t.Error("identical histograms should be distance 0")
	}
	d := ChiSquare([]float64{1, 0}, []float64{0, 1})
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("disjoint unit histograms distance = %v, want 1", d)
	}
	// Different lengths: missing bins are zero.
	d2 := ChiSquare([]float64{1}, []float64{1, 1})
	if math.Abs(d2-0.5) > 1e-12 {
		t.Errorf("padded distance = %v, want 0.5", d2)
	}
	if ChiSquare(nil, nil) != 0 {
		t.Error("empty histograms should be distance 0")
	}
}

func TestNormalize(t *testing.T) {
	n := Normalize([]float64{2, 2, 4})
	if math.Abs(n[2]-0.5) > 1e-12 {
		t.Errorf("normalize = %v", n)
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Error("all-zero normalize should stay zero")
	}
}

func TestCensusErrors(t *testing.T) {
	refs := []dna.Strand{"ACGT", "ACGT", "ACGT", "ACGT"}
	strands := []dna.Strand{
		"ACGT", // clean
		"ACG",  // 1 deletion
		"ACGA", // 1 substitution
		"",     // erasure, skipped
	}
	c := CensusErrors(refs, strands)
	if c.Dels != 1 || c.Subs != 1 || c.Inss != 0 {
		t.Errorf("census = %+v", c)
	}
	if c.Total() != 2 {
		t.Errorf("total = %d", c.Total())
	}
	if math.Abs(c.Fraction(align.Del)-0.5) > 1e-12 {
		t.Errorf("del fraction = %v", c.Fraction(align.Del))
	}
	if c.Fraction(align.Equal) != 0 {
		t.Error("non-error kind fraction should be 0")
	}
	if !strings.Contains(c.String(), "del 50.0%") {
		t.Errorf("census string = %q", c.String())
	}
	var empty ErrorCensus
	if empty.Fraction(align.Del) != 0 {
		t.Error("empty census fraction should be 0")
	}
}
