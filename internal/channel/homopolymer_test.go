package channel

import (
	"math"
	"strings"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestNewHomopolymerModelValidation(t *testing.T) {
	base := NewNaive("b", EqualMix(0.05))
	if _, err := NewHomopolymerModel(nil, 2, 3); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewHomopolymerModel(base, 0.5, 3); err == nil {
		t.Error("boost < 1 accepted")
	}
	h, err := NewHomopolymerModel(base, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.MinRun != 3 {
		t.Errorf("default MinRun = %d", h.MinRun)
	}
	if !strings.Contains(h.Name(), "homopolymer") {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestHomopolymerBoostConcentratesErrors(t *testing.T) {
	base := NewNaive("b", Rates{Sub: 0.06})
	h, err := NewHomopolymerModel(base, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Strand: 40 non-run bases, a 20-base A-run, 40 more non-run bases.
	prefix := dna.Strand(strings.Repeat("ACGT", 10))
	run := dna.Repeat(dna.A, 20)
	ref := prefix + run + prefix
	r := rng.New(1)
	inRun, outRun := 0, 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		read := Transmit(h, ref, r)
		for p := 0; p < ref.Len(); p++ {
			if read[p] != ref[p] {
				if p >= 40 && p < 60 {
					inRun++
				} else {
					outRun++
				}
			}
		}
	}
	inRate := float64(inRun) / (20 * trials)
	outRate := float64(outRun) / (80 * trials)
	ratio := inRate / outRate
	if ratio < 3 || ratio > 5 {
		t.Errorf("in-run/out-run error ratio = %v, want ≈4", ratio)
	}
}

func TestHomopolymerBoostPreservesAggregate(t *testing.T) {
	base := NewNaive("b", EqualMix(0.06))
	h, err := NewHomopolymerModel(base, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// References with plenty of runs.
	r := rng.New(2)
	var refs []dna.Strand
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		for sb.Len() < 110 {
			b := dna.Base(r.Intn(dna.NumBases))
			runLen := 1 + r.Intn(5)
			for k := 0; k < runLen && sb.Len() < 110; k++ {
				sb.WriteByte(b.Byte())
			}
		}
		refs = append(refs, dna.Strand(sb.String()))
	}
	dBase, dBoost := 0, 0
	for _, ref := range refs {
		dBase += align.Distance(string(ref), string(Transmit(base, ref, r)))
		dBoost += align.Distance(string(ref), string(Transmit(h, ref, r)))
	}
	ratio := float64(dBoost) / float64(dBase)
	if math.Abs(ratio-1) > 0.12 {
		t.Errorf("boost changed aggregate error mass: ratio %v", ratio)
	}
	if math.Abs(h.AggregateRate()-base.AggregateRate()) > 1e-12 {
		t.Error("AggregateRate differs")
	}
}

func TestHomopolymerNoRunsPassThrough(t *testing.T) {
	base := NewNaive("b", Rates{Sub: 0.1})
	h, _ := NewHomopolymerModel(base, 3, 3)
	ref := dna.Strand(strings.Repeat("ACGT", 25)) // no runs >= 3
	a := Transmit(h, ref, rng.New(7))
	b := Transmit(base, ref, rng.New(7))
	if a != b {
		t.Error("no-run strand should use the base model verbatim")
	}
}

func TestGCBiasCoverage(t *testing.T) {
	bias := GCBias{Strength: 2}
	r := rng.New(3)
	balanced := dna.Strand(strings.Repeat("ACGT", 25)) // GC 0.5
	extreme := dna.Strand(strings.Repeat("GGCC", 25))  // GC 1.0
	moderate := dna.Strand(strings.Repeat("GACG", 25)) // GC 0.75
	sum := func(ref dna.Strand) float64 {
		total := 0
		for i := 0; i < 2000; i++ {
			total += bias.PoolCoverage(ref, i, 40, r)
		}
		return float64(total) / 2000
	}
	b, m, e := sum(balanced), sum(moderate), sum(extreme)
	if math.Abs(b-40) > 1 {
		t.Errorf("balanced coverage = %v, want ~40", b)
	}
	if !(b > m && m > e) {
		t.Errorf("coverage not monotone in GC deviation: %v, %v, %v", b, m, e)
	}
	// exp(-2*1) ≈ 0.135 of 40 ≈ 5.4 for the extreme strand.
	if math.Abs(e-40*math.Exp(-2)) > 1 {
		t.Errorf("extreme coverage = %v, want ≈%v", e, 40*math.Exp(-2))
	}
	// Without a reference the count passes through.
	if bias.PoolCoverage("", 0, 40, r) != 40 {
		t.Error("an empty reference should pass the count through")
	}
	if !strings.Contains(bias.Name(), "gcbias") {
		t.Errorf("Name = %q", bias.Name())
	}
	// Zero strength is a no-op.
	if (GCBias{}).PoolCoverage(extreme, 0, 7, r) != 7 {
		t.Error("zero strength should not thin")
	}
}

func TestSimulatorUsesRefAwareCoverage(t *testing.T) {
	refs := []dna.Strand{
		dna.Strand(strings.Repeat("ACGT", 25)), // balanced
		dna.Strand(strings.Repeat("GGCC", 25)), // extreme GC
	}
	sim := Simulator{
		Channel:  NewNaive("n", Rates{}),
		Coverage: Pipeline{Stages: []Stage{GCBias{Strength: 3}}}.BindCoverage(FixedCoverage(30)),
	}
	ds := sim.Simulate("gc", refs, 5)
	if ds.Clusters[0].Coverage() <= ds.Clusters[1].Coverage() {
		t.Errorf("extreme-GC strand (%d reads) should be thinned vs balanced (%d)",
			ds.Clusters[1].Coverage(), ds.Clusters[0].Coverage())
	}
}
