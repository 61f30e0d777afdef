package channel

import (
	"math"
	"strings"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestPCRAmplificationSkewMeanPreserved(t *testing.T) {
	p := NewPCRAmplification(30, 0, 0.02)
	r := rng.New(61)
	const n, trials = 1000, 5000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(p.PoolCoverage("", i, n, r))
	}
	mean := sum / trials
	// E[exp(N(-σ²/2, σ))] = 1: the skew spreads coverage, not its mean.
	if math.Abs(mean/n-1) > 0.02 {
		t.Errorf("mean amplification factor = %v, want ≈1", mean/n)
	}
}

func TestPCRAmplificationDisabledConsumesNoDraws(t *testing.T) {
	r1, r2 := rng.New(7), rng.New(7)
	if got := NewPCRAmplification(30, 0, 0).PoolCoverage("", 0, 12, r1); got != 12 {
		t.Errorf("disabled skew rewrote count to %d", got)
	}
	if got := NewPCRAmplification(30, 0, 0.02).PoolCoverage("", 0, 0, r1); got != 0 {
		t.Errorf("empty cluster rewrote count to %d", got)
	}
	if r1.Uint64() != r2.Uint64() {
		t.Error("disabled pool stage consumed RNG draws")
	}
}

func TestAgingStageThinning(t *testing.T) {
	a := NewAgingStage(100, 0, DefaultBreakagePerYear)
	survive := math.Exp(-100 * DefaultBreakagePerYear)
	r := rng.New(67)
	const n, trials = 100, 3000
	sum := 0.0
	for i := 0; i < trials; i++ {
		got := a.PoolCoverage("", i, n, r)
		if got < 0 || got > n {
			t.Fatalf("thinning produced %d reads from %d", got, n)
		}
		sum += float64(got)
	}
	if mean := sum / trials; math.Abs(mean/n-survive) > 0.01 {
		t.Errorf("mean survival = %v, want ≈%v", mean/n, survive)
	}

	r1, r2 := rng.New(8), rng.New(8)
	if got := NewAgingStage(0, 0, DefaultBreakagePerYear).PoolCoverage("", 0, 9, r1); got != 9 {
		t.Errorf("zero-year aging rewrote count to %d", got)
	}
	if r1.Uint64() != r2.Uint64() {
		t.Error("zero-year aging consumed RNG draws")
	}
}

// TestBindCoverageStrandOnlyIsIdentity: pipelines without pool stages must
// return the base model unchanged — names and RNG draw streams of every
// existing strand-only pipeline stay byte-identical.
func TestBindCoverageStrandOnlyIsIdentity(t *testing.T) {
	base := FixedCoverage(5)
	if got := NewStoragePipeline("s", 0.059, 10).BindCoverage(base); got != CoverageModel(base) {
		t.Errorf("BindCoverage wrapped a strand-only pipeline: %T", got)
	}
}

func TestBindCoveragePoolStages(t *testing.T) {
	pipe := NewPhysicalPipeline("phys", 0.059, 100)
	cov := pipe.BindCoverage(FixedCoverage(100))

	if name := cov.Name(); !strings.Contains(name, "+pool(") ||
		!strings.Contains(name, "pcr") || !strings.Contains(name, "storage") {
		t.Errorf("bound coverage name = %q", name)
	}

	// Deterministic: same cluster RNG, same count.
	a, b := cov.Sample(3, rng.New(99)), cov.Sample(3, rng.New(99))
	if a != b {
		t.Errorf("pool coverage not deterministic: %d vs %d", a, b)
	}

	// Mean coverage ≈ base × aging survival (PCR skew is mean-preserving).
	survive := math.Exp(-100 * DefaultBreakagePerYear)
	sum, varied := 0.0, false
	const trials = 4000
	first := cov.Sample(0, rng.New(1))
	for i := 0; i < trials; i++ {
		n := cov.Sample(i, rng.New(uint64(1000+i)))
		if n != first {
			varied = true
		}
		sum += float64(n)
	}
	if !varied {
		t.Error("pool stages never perturbed the fixed base coverage")
	}
	if mean := sum / trials; math.Abs(mean/100-survive) > 0.02 {
		t.Errorf("mean pooled coverage = %v, want ≈%v", mean, 100*survive)
	}
}

// TestBindCoverageForwardsRefAware: the bound model is ref-aware, so a
// GC-bias stage among the pool stages sees each cluster's reference and
// thins it on top of the other stages' counts.
func TestBindCoverageForwardsRefAware(t *testing.T) {
	pipe := NewPhysicalPipeline("phys", 0.059, 100)
	pipe.Stages = append(pipe.Stages, GCBias{Strength: 2})
	cov := pipe.BindCoverage(FixedCoverage(50))

	ra, ok := cov.(RefAwareCoverage)
	if !ok {
		t.Fatal("pool binding is not RefAwareCoverage")
	}
	balanced := dna.Strand("ACGTACGTACGTACGTACGT")
	extreme := dna.Strand("GGGGGGGGGGCCCCCCCCCC")
	sumBal, sumExt := 0, 0
	for i := 0; i < 500; i++ {
		sumBal += ra.SampleRef(balanced, i, rng.New(uint64(2000+i)))
		sumExt += ra.SampleRef(extreme, i, rng.New(uint64(2000+i)))
	}
	if sumExt >= sumBal {
		t.Errorf("GC bias lost through pool binding: extreme %d >= balanced %d", sumExt, sumBal)
	}
	// Sample is SampleRef without a reference: GC bias passes through.
	if a, b := cov.Sample(3, rng.New(9)), ra.SampleRef("", 3, rng.New(9)); a != b {
		t.Errorf("Sample = %d, SampleRef(\"\") = %d", a, b)
	}
}

// TestPoolCoverageNeverNegative: whatever a pool stage returns, the
// binding clamps the count at zero.
func TestPoolCoverageNeverNegative(t *testing.T) {
	neg := negPool{}
	cov := Pipeline{Stages: []Stage{neg}}.BindCoverage(FixedCoverage(5))
	if got := cov.Sample(0, rng.New(1)); got != 0 {
		t.Errorf("negative pool count leaked through: %d", got)
	}
}

type negPool struct{}

func (negPool) Name() string                                        { return "neg" }
func (negPool) PoolCoverage(_ dna.Strand, _, _ int, _ *rng.RNG) int { return -3 }
