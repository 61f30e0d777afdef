package channel

import (
	"fmt"
	"math"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// HomopolymerModel boosts a base channel's error intensity inside
// homopolymer runs — the sequencing vulnerability §1.2 describes ("several
// encoding techniques have been employed to prevent their occurrence") and
// one of the effects §2.2.3 faults DNASimulator for ignoring. The boost is
// renormalised per strand so the aggregate error rate is unchanged: only
// the *placement* of errors shifts into runs.
type HomopolymerModel struct {
	// Base is the underlying channel model whose per-position intensity is
	// reshaped. It must be a *Model (the boost composes with its spatial
	// multipliers).
	Base *Model
	// Boost multiplies error intensity at positions inside qualifying
	// runs; must be >= 1.
	Boost float64
	// MinRun is the shortest run length that qualifies (default 3).
	MinRun int
}

// NewHomopolymerModel wraps base with the given boost.
func NewHomopolymerModel(base *Model, boost float64, minRun int) (*HomopolymerModel, error) {
	if base == nil {
		return nil, fmt.Errorf("channel: homopolymer model needs a base model")
	}
	if boost < 1 {
		return nil, fmt.Errorf("channel: homopolymer boost %g must be >= 1", boost)
	}
	if minRun < 2 {
		minRun = 3
	}
	return &HomopolymerModel{Base: base, Boost: boost, MinRun: minRun}, nil
}

// Name implements Channel.
func (h *HomopolymerModel) Name() string {
	return fmt.Sprintf("%s+homopolymer(×%.1f)", h.Base.Name(), h.Boost)
}

// AggregateRate returns the base model's aggregate (the boost is
// mass-preserving).
func (h *HomopolymerModel) AggregateRate() float64 { return h.Base.AggregateRate() }

// AppendTransmit implements Channel: it temporarily composes a per-strand
// position multiplier (boost inside runs, renormalised to mean 1) with the
// base model's own spatial shape by running the base model against a
// strand-specific wrapper.
func (h *HomopolymerModel) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte {
	mult := h.runMultipliers(ref)
	if mult == nil {
		return h.Base.AppendTransmit(dst, ref, r, scr)
	}
	// Rejection-style composition: sample from the base model but thin or
	// intensify per position. The simplest faithful mechanism is a
	// two-pass: positions are perturbed by a clone of the base model whose
	// Spatial is the product of the base shape and the run multiplier.
	clone := h.Base.shallowCopy()
	clone.Spatial = productSpatial{base: h.Base, mult: mult}
	return clone.AppendTransmit(dst, ref, r, scr)
}

// runMultipliers returns per-position multipliers with mean 1, or nil when
// the strand has no qualifying runs.
func (h *HomopolymerModel) runMultipliers(ref []dna.Base) []float64 {
	minRun := h.MinRun
	if minRun < 2 {
		minRun = 3
	}
	runs := dna.FromBases(ref).Homopolymers(minRun)
	if len(runs) == 0 || h.Boost == 1 {
		return nil
	}
	mult := make([]float64, len(ref))
	for i := range mult {
		mult[i] = 1
	}
	for _, run := range runs {
		for p := run.Pos; p < run.Pos+run.Len; p++ {
			mult[p] = h.Boost
		}
	}
	// Renormalise to mean 1 so the aggregate error rate is preserved.
	total := 0.0
	for _, m := range mult {
		total += m
	}
	mean := total / float64(len(mult))
	for i := range mult {
		mult[i] /= mean
	}
	return mult
}

// productSpatial composes a model's own spatial shape with a fixed
// per-position multiplier vector. It implements dist.Spatial just enough
// for Model.multipliers; the rate argument behaves as for any Spatial.
type productSpatial struct {
	base *Model
	mult []float64
}

// Name implements dist.Spatial.
func (p productSpatial) Name() string { return "homopolymer-product" }

// Rates implements dist.Spatial.
func (p productSpatial) Rates(length int, rate float64) []float64 {
	out := make([]float64, length)
	baseMult := p.base.multipliers(length) // nil means uniform
	total := 0.0
	for i := 0; i < length; i++ {
		m := 1.0
		if baseMult != nil {
			m = baseMult[i]
		}
		if i < len(p.mult) {
			m *= p.mult[i]
		}
		out[i] = m
		total += m
	}
	if total == 0 {
		return out
	}
	scale := rate * float64(length) / total
	for i := range out {
		out[i] = math.Min(out[i]*scale, 0.95)
	}
	return out
}
