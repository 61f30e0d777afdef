package channel

import (
	"fmt"
	"math"
	"strings"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Pool stages: the population shape of Stage. A pool stage does not touch
// individual reads — it rewrites how many reads a cluster contributes to
// the pool, which is where PCR amplification skew, GC bias, strand
// breakage and decay dropout actually act (Heckel et al.). These are the
// channel's count effects; effects on one read at a time (chimeras,
// truncation) are Channels. Pipeline.BindCoverage layers the pipeline's
// pool stages over a base CoverageModel in stage order.
//
// Pre-base stages (PreBaseStage: dropout, zerocov) are the count effects
// that act before the base coverage draw: they can only erase the whole
// cluster.
//
// The RNG draw-order contract (DESIGN.md §16): all count draws come from
// the per-cluster RNG before any read is generated — pre-base stages in
// order, then the base coverage draw, then pool stages in order. The
// number of draws a count stage consumes may depend only on the cluster's
// reference, index and incoming count — never on which worker or shard
// runs the cluster — so pipeline output stays deterministic,
// worker-invariant and fleet-merge-safe.

// PoolStage is a Stage that transforms the cluster population.
type PoolStage interface {
	Stage
	// PoolCoverage maps the read count entering the stage (n) for cluster
	// clusterIndex, whose reference is ref, to the count leaving it,
	// drawing any randomness from r. ref is empty when the caller samples
	// without a reference (CoverageModel.Sample). Results are clamped to
	// >= 0 by the binding coverage model.
	PoolCoverage(ref dna.Strand, clusterIndex, n int, r *rng.RNG) int
}

// PreBaseStage is a Stage that may erase the cluster before the base
// coverage draw. An erased cluster gets no reads, and neither the base
// model nor any pool stage draws for it.
type PreBaseStage interface {
	Stage
	// Erases reports whether cluster clusterIndex is lost, drawing any
	// randomness from r.
	Erases(clusterIndex int, r *rng.RNG) bool
}

// BindCoverage layers the pipeline's count stages over a base coverage
// model. Each cluster runs the pre-base stages in stage order, then
// samples the base coverage, then lets every pool stage rewrite the count
// in stage order — all from the per-cluster RNG, before read generation.
// Pipelines without count stages return base unchanged, so binding is
// always safe (and keeps existing coverage names and draw streams
// byte-identical for strand-only pipelines). The bound model implements
// RefAwareCoverage, so ref-aware stages such as GCBias see each cluster's
// reference.
func (p Pipeline) BindCoverage(base CoverageModel) CoverageModel {
	var bound pooledCoverage
	for _, st := range p.Stages {
		if ps, ok := st.(PoolStage); ok {
			bound.stages = append(bound.stages, ps)
		}
		if pre, ok := st.(PreBaseStage); ok {
			bound.pre = append(bound.pre, pre)
		}
	}
	if len(bound.stages) == 0 && len(bound.pre) == 0 {
		return base
	}
	bound.base = base
	return bound
}

// pooledCoverage is the CoverageModel BindCoverage builds.
type pooledCoverage struct {
	base   CoverageModel
	pre    []PreBaseStage
	stages []PoolStage
}

// Sample implements CoverageModel: SampleRef without a reference.
func (p pooledCoverage) Sample(i int, r *rng.RNG) int {
	return p.SampleRef("", i, r)
}

// SampleRef implements RefAwareCoverage: the pre-base stages first, then
// the base count, then every pool stage in order. The base draw gets ref
// too, so a base that is itself bound over ref-aware stages keeps them.
func (p pooledCoverage) SampleRef(ref dna.Strand, i int, r *rng.RNG) int {
	for _, st := range p.pre {
		if st.Erases(i, r) {
			return 0
		}
	}
	n := SampleFor(p.base, ref, i, r)
	for _, st := range p.stages {
		n = st.PoolCoverage(ref, i, n, r)
		if n < 0 {
			n = 0
		}
	}
	return n
}

// Name implements CoverageModel: the base, the pool stages, then each
// pre-base stage. The rendering is part of Simulator.Describe, which keys
// dnasim and dnasimd checkpoint journals.
func (p pooledCoverage) Name() string {
	name := p.base.Name()
	if len(p.stages) > 0 {
		names := make([]string, len(p.stages))
		for i, st := range p.stages {
			names[i] = st.Name()
		}
		name += fmt.Sprintf("+pool(%s)", strings.Join(names, "→"))
	}
	for _, st := range p.pre {
		name += "+" + st.Name()
	}
	return name
}

// Dropout erases each cluster with probability P, modelling whole-strand
// loss (failed PCR amplification or storage decay — the 16 empty clusters
// in the Nanopore dataset). It is the dropout= directive.
type Dropout struct {
	P float64
}

// Name implements Stage.
func (d Dropout) Name() string { return fmt.Sprintf("dropout(%.3f)", d.P) }

// Erases implements PreBaseStage: one Bool draw at P (none when P is 0).
func (d Dropout) Erases(_ int, r *rng.RNG) bool { return r.Bool(d.P) }

// ZeroCoverage erases every cluster whose index lies in
// [Start, Start+Len), modelling a spatially localised synthesis or plate
// failure. It draws nothing, which makes it the injector of choice for
// tests that must erase exactly known strands. It is the zerocov=
// directive.
type ZeroCoverage struct {
	Start, Len int
}

// Name implements Stage.
func (z ZeroCoverage) Name() string { return fmt.Sprintf("zerocov(%d:%d)", z.Start, z.Len) }

// Erases implements PreBaseStage. The region test never forms Start+Len,
// which overflows for the largest lengths the grammar accepts.
func (z ZeroCoverage) Erases(i int, _ *rng.RNG) bool { return i >= z.Start && i-z.Start < z.Len }

// DefaultPCREfficiencySD is the per-cycle standard deviation of
// log-amplification-efficiency used by NewPhysicalPipeline: small per
// cycle, but compounded over ~30 cycles it reproduces the several-fold
// coverage spread Heckel et al. observed after PCR.
const DefaultPCREfficiencySD = 0.02

// DefaultBreakagePerYear is the strand-breakage hazard rate used by
// NewPhysicalPipeline: ln 2 / 521 y, the half-life Grass et al. measured
// for silica-encapsulated DNA.
const DefaultBreakagePerYear = 0.00133

// PCRAmplification is the population-aware PCR stage, both shapes at
// once: the embedded Model adds the per-cycle polymerase substitutions to
// every strand, and PoolCoverage applies lognormal amplification skew —
// per-cycle efficiency differences compound multiplicatively over the
// cycle count, so some clusters amplify far past the mean while others
// starve.
type PCRAmplification struct {
	*Model
	// Cycles is the amplification cycle count.
	Cycles int
	// EfficiencySD is the per-cycle standard deviation of the cluster's
	// log-efficiency; zero disables the skew (and consumes no draws).
	EfficiencySD float64
}

// NewPCRAmplification builds the stage; negative cycles clamp to zero
// exactly as NewPCRStage does.
func NewPCRAmplification(cycles int, perCycleSubRate, efficiencySD float64) *PCRAmplification {
	if cycles < 0 {
		cycles = 0
	}
	if efficiencySD < 0 {
		efficiencySD = 0
	}
	return &PCRAmplification{Model: NewPCRStage(cycles, perCycleSubRate), Cycles: cycles, EfficiencySD: efficiencySD}
}

// PoolCoverage implements PoolStage: one Normal draw per cluster sets the
// cluster's amplification factor exp(N(-σ²/2, σ)) with σ = EfficiencySD·√Cycles.
// The -σ²/2 location keeps the factor's expectation at exactly 1, so the
// skew spreads coverage without inflating its mean.
func (p *PCRAmplification) PoolCoverage(_ dna.Strand, _, n int, r *rng.RNG) int {
	if p.EfficiencySD <= 0 || n <= 0 {
		return n
	}
	sigma := p.EfficiencySD * math.Sqrt(float64(p.Cycles))
	factor := math.Exp(r.Normal(-0.5*sigma*sigma, sigma))
	return int(float64(n)*factor + 0.5)
}

// AgingStage is the population-aware storage stage, both shapes at once:
// the embedded Model carries the hydrolytic per-strand damage of
// NewDecayStage, and PoolCoverage thins the pool by strand breakage —
// each strand survives the storage period with probability
// exp(-Years·BreakagePerYear), so old pools lose whole strands (down to
// empty clusters) on top of the per-base decay.
type AgingStage struct {
	*Model
	// Years is the storage duration.
	Years float64
	// BreakagePerYear is the per-strand breakage hazard rate; zero
	// disables the thinning (and consumes no draws).
	BreakagePerYear float64
}

// NewAgingStage builds the stage; negative years clamp to zero exactly as
// NewDecayStage does.
func NewAgingStage(years, ratePerYear, breakagePerYear float64) *AgingStage {
	if years < 0 {
		years = 0
	}
	if breakagePerYear < 0 {
		breakagePerYear = 0
	}
	return &AgingStage{Model: NewDecayStage(years, ratePerYear), Years: years, BreakagePerYear: breakagePerYear}
}

// PoolCoverage implements PoolStage: binomial thinning at the survival
// probability.
func (a *AgingStage) PoolCoverage(_ dna.Strand, _, n int, r *rng.RNG) int {
	if a.Years <= 0 || a.BreakagePerYear <= 0 || n <= 0 {
		return n
	}
	return r.Binomial(n, math.Exp(-a.Years*a.BreakagePerYear))
}

// GCBias is the PCR bias DNASimulator does not model (§2.2.3), as a pool
// stage: amplification efficiency decays exponentially as a strand's
// GC-ratio deviates from 50%, which both skews the copy-number
// distribution and silently erases extreme strands.
type GCBias struct {
	// Strength controls the decay: each copy survives with probability
	// exp(-Strength · |GC − 0.5| · 2). Zero disables the bias (and
	// consumes no draws).
	Strength float64
}

// Name implements Stage.
func (g GCBias) Name() string { return fmt.Sprintf("gcbias(%.1f)", g.Strength) }

// PoolCoverage implements PoolStage: binomial thinning at the strand's
// survival probability. Without a reference the count passes through.
func (g GCBias) PoolCoverage(ref dna.Strand, _, n int, r *rng.RNG) int {
	if g.Strength <= 0 || n <= 0 || ref.Len() == 0 {
		return n
	}
	deviation := math.Abs(ref.GCRatio()-0.5) * 2 // 0 at balance, 1 at extreme
	return r.Binomial(n, math.Exp(-g.Strength*deviation))
}
