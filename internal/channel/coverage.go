package channel

import (
	"fmt"
	"math"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// CoverageModel decides how many noisy reads each reference strand
// receives. Real sequencing coverage is overdispersed (Heckel et al. found
// it approximately negative-binomial); the evaluation protocols also need
// fixed and per-cluster "custom" coverage (§2.2.2).
type CoverageModel interface {
	// Sample returns the read count for the cluster at the given index.
	Sample(clusterIndex int, r *rng.RNG) int
	// Name identifies the model in tables.
	Name() string
}

// RefAwareCoverage is an optional extension of CoverageModel for models
// whose read count depends on the reference strand itself (PCR prefers
// some sequences over others — Heckel et al.'s observation in §2.1).
// Simulator detects it through SampleFor; Pipeline.BindCoverage returns
// one, so ref-aware pool stages (GCBias) see each cluster's reference.
type RefAwareCoverage interface {
	CoverageModel
	// SampleRef returns the read count for the given reference strand.
	SampleRef(ref dna.Strand, clusterIndex int, r *rng.RNG) int
}

// SampleFor draws cluster i's read count from cov, handing it ref when cov
// is a RefAwareCoverage.
func SampleFor(cov CoverageModel, ref dna.Strand, i int, r *rng.RNG) int {
	if ra, ok := cov.(RefAwareCoverage); ok {
		return ra.SampleRef(ref, i, r)
	}
	return cov.Sample(i, r)
}

// FixedCoverage gives every cluster exactly N reads.
type FixedCoverage int

// Sample implements CoverageModel.
func (f FixedCoverage) Sample(int, *rng.RNG) int { return int(f) }

// Name implements CoverageModel.
func (f FixedCoverage) Name() string { return fmt.Sprintf("fixed(%d)", int(f)) }

// CustomCoverage assigns each cluster the coverage observed in a reference
// dataset — the paper's "custom coverage" protocol, which makes simulated
// data directly comparable with real data cluster-by-cluster. Indices past
// the end wrap around.
type CustomCoverage []int

// Sample implements CoverageModel.
func (c CustomCoverage) Sample(i int, _ *rng.RNG) int {
	if len(c) == 0 {
		return 0
	}
	return c[i%len(c)]
}

// Name implements CoverageModel.
func (c CustomCoverage) Name() string { return "custom" }

// NegBinCoverage draws coverage from a negative-binomial distribution with
// the given mean and dispersion (variance = mean + mean²/dispersion), the
// empirically observed shape of sequencing coverage.
type NegBinCoverage struct {
	Mean, Dispersion float64
}

// Sample implements CoverageModel.
func (n NegBinCoverage) Sample(_ int, r *rng.RNG) int {
	return r.NegBinomialMeanDisp(n.Mean, n.Dispersion)
}

// Name implements CoverageModel.
func (n NegBinCoverage) Name() string {
	return fmt.Sprintf("negbin(μ=%.1f,k=%.1f)", n.Mean, n.Dispersion)
}

// PoissonCoverage draws coverage from a Poisson distribution — the simplest
// stochastic model, proposed by Heckel et al. [14] for PCR amplification.
type PoissonCoverage float64

// Sample implements CoverageModel.
func (p PoissonCoverage) Sample(_ int, r *rng.RNG) int {
	return r.Poisson(float64(p))
}

// Name implements CoverageModel.
func (p PoissonCoverage) Name() string { return fmt.Sprintf("poisson(μ=%.1f)", float64(p)) }

// NormalCoverage draws coverage from a normal distribution truncated at
// zero, per the Bornholt et al. observation cited in §2.2.3.
type NormalCoverage struct {
	Mean, SD float64
}

// Sample implements CoverageModel.
func (n NormalCoverage) Sample(_ int, r *rng.RNG) int {
	v := r.Normal(n.Mean, n.SD)
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Name implements CoverageModel.
func (n NormalCoverage) Name() string {
	return fmt.Sprintf("normal(μ=%.1f,σ=%.1f)", n.Mean, n.SD)
}

// CoverageByName builds the coverage model the CLIs and job specs name:
// "fixed" (or empty) gives every cluster int(mean) reads, "negbin" draws
// with dispersion 2.5, "poisson" with the given mean, and "normal" with
// SD mean/3. The mean must be finite, non-negative and at most
// math.MaxInt32: past that no model yields a read count a cluster can
// hold, and a NaN mean never finishes a Poisson draw.
func CoverageByName(name string, mean float64) (CoverageModel, error) {
	if !(mean >= 0 && mean <= math.MaxInt32) {
		return nil, fmt.Errorf("coverage mean %g out of range [0, %d]", mean, math.MaxInt32)
	}
	switch name {
	case "", "fixed":
		return FixedCoverage(int(mean)), nil
	case "negbin":
		return NegBinCoverage{Mean: mean, Dispersion: 2.5}, nil
	case "poisson":
		return PoissonCoverage(mean), nil
	case "normal":
		return NormalCoverage{Mean: mean, SD: mean / 3}, nil
	}
	return nil, fmt.Errorf("unknown coverage model %q", name)
}
