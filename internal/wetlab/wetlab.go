// Package wetlab provides the "real data" substrate of the reproduction.
//
// The paper evaluates its simulator against the Microsoft Nanopore dataset
// of Batu et al. [3]: 10,000 reference strands of length 110, 269,709 noisy
// reads, mean coverage 26.97, 16 erasures, aggregate error ≈5.9%, with a
// terminal spatial skew (strand end ≈2× strand start), burst deletions, a
// transition-biased substitution confusion matrix, and second-order errors
// carrying their own positional skews (Figs 3.2 and 3.6).
//
// That dataset is not redistributable, so this package implements a
// *ground-truth wetlab channel* exhibiting exactly those published shape
// parameters and a generator that emits a synthetic dataset with the same
// statistics. Calibration and evaluation code treats the generated reads as
// opaque "real" data — it must re-derive every parameter from the reads
// alone, just as the paper does from the wetlab data. See DESIGN.md §2 for
// the substitution argument.
package wetlab

import (
	"context"
	"fmt"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
)

// Config parameterises the synthetic Nanopore dataset.
type Config struct {
	// NumClusters is the number of reference strands (paper: 10,000).
	NumClusters int
	// StrandLen is the reference length (paper: 110).
	StrandLen int
	// MeanCoverage is the mean reads per cluster (paper: 26.97).
	MeanCoverage float64
	// Dispersion is the negative-binomial coverage dispersion; smaller is
	// more spread. The paper's coverages range 0–164 around mean 27, which
	// matches k ≈ 2.5.
	Dispersion float64
	// ErrorRate is the aggregate per-base error rate (paper: 0.059).
	ErrorRate float64
	// ErasureP is the probability a cluster is lost entirely (paper: 16 of
	// 10,000).
	ErasureP float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns the published shape of the Microsoft Nanopore
// dataset.
func DefaultConfig() Config {
	return Config{
		NumClusters:  10000,
		StrandLen:    110,
		MeanCoverage: 26.97,
		Dispersion:   2.5,
		ErrorRate:    0.059,
		ErasureP:     0.0016,
		Seed:         1,
	}
}

// Validate checks the configuration for usable values.
func (c Config) Validate() error {
	if c.NumClusters <= 0 {
		return fmt.Errorf("wetlab: NumClusters must be positive, got %d", c.NumClusters)
	}
	if c.StrandLen <= 0 {
		return fmt.Errorf("wetlab: StrandLen must be positive, got %d", c.StrandLen)
	}
	if c.MeanCoverage < 0 {
		return fmt.Errorf("wetlab: MeanCoverage must be non-negative, got %g", c.MeanCoverage)
	}
	if c.Dispersion <= 0 {
		return fmt.Errorf("wetlab: Dispersion must be positive, got %g", c.Dispersion)
	}
	if c.ErrorRate < 0 || c.ErrorRate >= 1 {
		return fmt.Errorf("wetlab: ErrorRate must be in [0,1), got %g", c.ErrorRate)
	}
	if c.ErasureP < 0 || c.ErasureP > 1 {
		return fmt.Errorf("wetlab: ErasureP must be in [0,1], got %g", c.ErasureP)
	}
	return nil
}

// simulator runs ch over the config's negative-binomial coverage, with
// each cluster lost whole at ErasureP.
func (c Config) simulator(ch channel.Channel) channel.Simulator {
	ch, cov := channel.StageList{{Kind: "dropout", Rate: c.ErasureP}}.Bind(ch,
		channel.NegBinCoverage{Mean: c.MeanCoverage, Dispersion: c.Dispersion})
	return channel.Simulator{Channel: ch, Coverage: cov}
}

// GroundTruthChannel builds the channel that stands in for the physical
// Nanopore pipeline at the given aggregate error rate. It layers every
// effect the paper attributes to the real data:
//
//   - per-base conditional error rates (G- and C-rich positions noisier),
//   - a transition-biased substitution confusion matrix (A↔G, C↔T),
//   - burst (long) deletions with the §3.3.1 length distribution,
//   - the terminal spatial skew of Fig 3.2b (end ≈ 2× start),
//   - ten dominant second-order errors carrying ~56% of the error mass,
//     several with their own end-of-strand skew (Fig 3.6).
func GroundTruthChannel(errorRate float64) *channel.Model {
	m := &channel.Model{Label: "wetlab-nanopore"}
	// Nanopore mix, modulated per base: G and C slightly noisier (secondary
	// structure), A and T slightly cleaner. Mean multiplier is 1.
	mix := channel.NanoporeMix(errorRate)
	baseMult := [dna.NumBases]float64{dna.A: 0.90, dna.C: 1.05, dna.G: 1.15, dna.T: 0.90}
	for b := dna.Base(0); b < dna.NumBases; b++ {
		m.PerBase[b] = mix.Scale(baseMult[b])
	}
	m.SubMatrix = channel.TransitionBiasedSubMatrix(0.7)
	m.InsDist = [dna.NumBases]float64{dna.A: 0.3, dna.C: 0.2, dna.G: 0.2, dna.T: 0.3}
	ld := channel.PaperLongDeletion()
	// Scale the long-deletion start probability with the error rate so the
	// channel stays coherent away from the default 5.9%.
	ld.Prob *= errorRate / 0.059
	m.LongDel = ld

	skewed := m.WithSpatial(dist.NanoporeSkew())

	// Second-order errors: the ten most common specific errors comprise
	// ~56% of total error mass (§3.3.3). endSkew concentrates an error at
	// the final positions; startSkew at the first ones; nil is uniform.
	endSkew := []float64{1, 1, 1, 1, 1, 1, 1, 1, 2, 6}
	startSkew := []float64{5, 2, 1, 1, 1, 1, 1, 1, 1, 1}
	unit := errorRate * 0.56 / 10 // average mass per second-order error
	so := []channel.SecondOrderError{
		{Kind: align.Del, From: dna.G, Rate: 4 * 1.6 * unit, Spatial: endSkew},
		{Kind: align.Del, From: dna.T, Rate: 4 * 1.4 * unit, Spatial: endSkew},
		{Kind: align.Del, From: dna.A, Rate: 4 * 1.2 * unit},
		{Kind: align.Del, From: dna.C, Rate: 4 * 1.0 * unit},
		{Kind: align.Sub, From: dna.T, To: dna.C, Rate: 4 * 1.2 * unit, Spatial: endSkew},
		{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 4 * 1.1 * unit, Spatial: startSkew},
		{Kind: align.Sub, From: dna.C, To: dna.T, Rate: 4 * 0.8 * unit},
		{Kind: align.Sub, From: dna.G, To: dna.A, Rate: 4 * 0.7 * unit},
		{Kind: align.Ins, To: dna.A, Rate: 0.55 * unit, Spatial: startSkew},
		{Kind: align.Ins, To: dna.T, Rate: 0.45 * unit, Spatial: endSkew},
	}
	out := skewed.WithSecondOrder(so)
	out.Label = "wetlab-nanopore"
	return out
}

// Generate produces the synthetic "real Nanopore" dataset.
func Generate(cfg Config) (*dataset.Dataset, error) {
	return GenerateCtx(context.Background(), cfg)
}

// GenerateCtx is Generate under a context: cancellation stops the
// simulation between clusters and returns the context error instead of a
// partially filled dataset.
func GenerateCtx(ctx context.Context, cfg Config) (*dataset.Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	refs := channel.RandomReferences(cfg.NumClusters, cfg.StrandLen, cfg.Seed)
	ds, err := cfg.simulator(GroundTruthChannel(cfg.ErrorRate)).SimulateCtx(ctx, "Nanopore", refs, cfg.Seed+0x5743)
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// MustGenerate is Generate that panics on configuration errors; for tests
// and benchmarks with static configs.
func MustGenerate(cfg Config) *dataset.Dataset {
	ds, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}
