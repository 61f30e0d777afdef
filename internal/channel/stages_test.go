package channel

import (
	"math"
	"strings"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestTransitionBiasedSubMatrix(t *testing.T) {
	mtx := TransitionBiasedSubMatrix(0.8)
	partner := map[dna.Base]dna.Base{dna.A: dna.G, dna.G: dna.A, dna.C: dna.T, dna.T: dna.C}
	for b := dna.Base(0); b < dna.NumBases; b++ {
		rowSum := 0.0
		for c := dna.Base(0); c < dna.NumBases; c++ {
			rowSum += mtx[b][c]
		}
		if math.Abs(rowSum-1) > 1e-12 {
			t.Errorf("row %v sums to %v", b, rowSum)
		}
		if mtx[b][b] != 0 {
			t.Errorf("diagonal %v nonzero", b)
		}
		if mtx[b][partner[b]] != 0.8 {
			t.Errorf("transition weight for %v = %v", b, mtx[b][partner[b]])
		}
	}
	// Clamping.
	m2 := TransitionBiasedSubMatrix(1.5)
	if m2[dna.A][dna.G] != 1 {
		t.Error("transition not clamped to 1")
	}
}

func TestPipelineComposes(t *testing.T) {
	p := Pipeline{Stages: []Stage{
		NewNaive("s1", Rates{Del: 0.05}),
		NewNaive("s2", Rates{Ins: 0.05}),
	}}
	if p.Name() != "s1→s2" {
		t.Errorf("Name = %q", p.Name())
	}
	r := rng.New(1)
	ref := dna.Strand(RandomReferences(1, 100, 1)[0])
	read := Transmit(p, ref, r)
	if err := read.Validate(); err != nil {
		t.Fatal(err)
	}
	labeled := Pipeline{Label: "full", Stages: p.Stages}
	if labeled.Name() != "full" {
		t.Error("label ignored")
	}
}

func TestPipelineAggregateAdditivity(t *testing.T) {
	p := Pipeline{Stages: []Stage{
		NewNaive("a", EqualMix(0.02)),
		NewNaive("b", EqualMix(0.03)),
	}}
	agg, complete := p.AggregateRate()
	if math.Abs(agg-0.05) > 1e-12 {
		t.Errorf("pipeline aggregate = %v", agg)
	}
	if !complete {
		t.Error("all stages report rates, sum should be complete")
	}
}

func TestPipelineEquivalentToSinglePassAtAggregate(t *testing.T) {
	// §4.2 ablation: a two-stage pipeline at rates p1+p2 should produce the
	// same aggregate edit-distance mass as a single pass at p1+p2 (to first
	// order in p).
	refs := RandomReferences(300, 110, 2)
	r1, r2 := rng.New(3), rng.New(4)
	pipe := Pipeline{Stages: []Stage{
		NewNaive("a", EqualMix(0.03)),
		NewNaive("b", EqualMix(0.03)),
	}}
	single := NewNaive("s", EqualMix(0.06))
	dPipe, dSingle := 0, 0
	for _, ref := range refs {
		dPipe += align.Distance(string(ref), string(Transmit(pipe, ref, r1)))
		dSingle += align.Distance(string(ref), string(Transmit(single, ref, r2)))
	}
	ratio := float64(dPipe) / float64(dSingle)
	if math.Abs(ratio-1) > 0.08 {
		t.Errorf("pipeline/single error mass ratio = %v, want ~1", ratio)
	}
}

func TestStageConstructors(t *testing.T) {
	r := rng.New(5)
	ref := dna.Strand(RandomReferences(1, 110, 5)[0])

	synth := NewSynthesisStage(0.01)
	if synth.Name() != "synthesis" {
		t.Error("synthesis name")
	}
	if synth.PerBase[0].Del <= synth.PerBase[0].Ins {
		t.Error("synthesis should be deletion-dominant")
	}

	pcr := NewPCRStage(30, 0.0001)
	if math.Abs(pcr.PerBase[0].Sub-0.003) > 1e-12 {
		t.Errorf("pcr sub rate = %v", pcr.PerBase[0].Sub)
	}
	if pcr.PerBase[0].Del != 0 || pcr.PerBase[0].Ins != 0 {
		t.Error("pcr should be substitution-only")
	}
	if NewPCRStage(-1, 0.1).PerBase[0].Sub != 0 {
		t.Error("negative cycles should clamp to 0")
	}

	decay := NewDecayStage(100, 0.00005)
	if math.Abs(decay.AggregateRate()-0.005) > 1e-12 {
		t.Errorf("decay aggregate = %v", decay.AggregateRate())
	}
	if NewDecayStage(-1, 0.1).AggregateRate() != 0 {
		t.Error("negative years should clamp to 0")
	}

	seq := NewSequencingStage(NanoporeMix(0.04), PaperLongDeletion(), nil)
	read := Transmit(seq, ref, r)
	if err := read.Validate(); err != nil {
		t.Fatal(err)
	}

	full := NewStoragePipeline("storage", 0.059, 10)
	if len(full.Stages) != 4 {
		t.Fatalf("pipeline has %d stages", len(full.Stages))
	}
	if !strings.Contains(full.Name(), "storage") {
		t.Errorf("pipeline name = %q", full.Name())
	}
	agg, complete := full.AggregateRate()
	if !complete {
		t.Error("storage pipeline stages all report rates")
	}
	// Within 10% of the requested total (long-deletion prob adds a little).
	if agg < 0.055 || agg > 0.07 {
		t.Errorf("full pipeline aggregate = %v, want ≈0.059", agg)
	}
	out := Transmit(full, ref, r)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStoragePipelineEmpiricalRate(t *testing.T) {
	full := NewStoragePipeline("storage", 0.06, 10)
	refs := RandomReferences(200, 110, 6)
	r := rng.New(7)
	totalDist, totalBases := 0, 0
	for _, ref := range refs {
		read := Transmit(full, ref, r)
		totalDist += align.Distance(string(ref), string(read))
		totalBases += ref.Len()
	}
	rate := float64(totalDist) / float64(totalBases)
	if rate < 0.045 || rate > 0.08 {
		t.Errorf("pipeline empirical error rate = %v, want ≈0.06", rate)
	}
}
