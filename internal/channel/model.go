package channel

import (
	"fmt"
	"sync/atomic"

	"dnastore/internal/align"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// SecondOrderError is one specific error with its own spatial distribution
// (§3.3.3): e.g. "deletion of G" or "substitution A→G", observed to carry
// its own positional skew in the Nanopore data (Fig 3.6).
type SecondOrderError struct {
	// Kind is align.Sub, align.Del or align.Ins.
	Kind align.OpKind
	// From is the reference base the error applies to (Sub and Del). It is
	// ignored for Ins.
	From dna.Base
	// To is the produced base (Sub and Ins). It is ignored for Del.
	To dna.Base
	// Rate is the per-position probability of this error at a position
	// where it applies, before spatial weighting.
	Rate float64
	// Spatial holds relative per-position weights (resampled to the strand
	// length, normalised to mean 1). Nil means uniform.
	Spatial []float64
}

// String renders the error in the paper's "del(G)" / "sub(A→G)" style.
func (e SecondOrderError) String() string {
	switch e.Kind {
	case align.Sub:
		return fmt.Sprintf("sub(%s→%s)", e.From, e.To)
	case align.Del:
		return fmt.Sprintf("del(%s)", e.From)
	case align.Ins:
		return fmt.Sprintf("ins(%s)", e.To)
	default:
		return fmt.Sprintf("unknown(%d)", e.Kind)
	}
}

// applies reports whether the error can occur at a position holding base b.
func (e SecondOrderError) applies(b dna.Base) bool {
	if e.Kind == align.Ins {
		return true
	}
	return e.From == b
}

// Model is the paper's progressively-refined error model. Each evaluation
// tier (§3.3) is a Model with more fields populated:
//
//   - Naive: identical PerBase rates, nil SubMatrix behaviour (uniform),
//     zero LongDel, nil Spatial, no SecondOrder.
//   - "+ Cond. Prob + Del": per-base conditional rates, a substitution
//     confusion matrix and long deletions.
//   - "+ Spatial Skew": a dist.Spatial shaping the per-position rates.
//   - "+ 2nd-order Errors": the top-K specific errors with their own
//     spatial histograms; PerBase rates hold the residual generic mass.
//
// The zero Model is an error-free channel. Models are safe for concurrent
// AppendTransmit calls.
type Model struct {
	// Label is the channel name reported in tables.
	Label string
	// PerBase holds the conditional error rates P(err-type | base).
	PerBase [dna.NumBases]Rates
	// SubMatrix[b][c] is P(read base = c | substitution of ref base b).
	// A row that sums to zero falls back to uniform over the other bases.
	SubMatrix [dna.NumBases][dna.NumBases]float64
	// InsDist is the distribution of inserted bases; all-zero means uniform.
	InsDist [dna.NumBases]float64
	// LongDel models burst deletions.
	LongDel LongDeletion
	// Spatial shapes per-position error intensity; nil means uniform.
	Spatial dist.Spatial
	// SecondOrder lists specific errors layered on top of the generic
	// model. Their rates are *in addition to* PerBase; calibration shrinks
	// PerBase so the aggregate stays fixed.
	SecondOrder []SecondOrderError
	// plans caches one compiled transmission plan per strand length in a
	// copy-on-write map (see plan.go): AppendTransmit reads it with a single
	// atomic load and never takes a lock. Like the mutex-guarded caches it
	// replaced, it assumes the model's parameter fields are not mutated
	// after the first AppendTransmit.
	plans atomic.Pointer[map[int]*txPlan]
}

// Name implements Channel.
func (m *Model) Name() string {
	if m.Label != "" {
		return m.Label
	}
	return "model"
}

// NewNaive returns the paper's naive simulator: three aggregate parameters,
// no base conditioning, no bursts, uniform spatial distribution.
func NewNaive(label string, r Rates) *Model {
	m := &Model{Label: label}
	for b := range m.PerBase {
		m.PerBase[b] = r
	}
	return m
}

// AggregateRate returns the mean per-position error probability assuming a
// uniform base composition: the average over bases of the conditional total
// plus the long-deletion start probability and the second-order mass.
func (m *Model) AggregateRate() float64 {
	sum := 0.0
	for b := 0; b < dna.NumBases; b++ {
		sum += m.PerBase[b].Total()
	}
	agg := sum/dna.NumBases + m.LongDel.Prob
	for _, e := range m.SecondOrder {
		if e.Kind == align.Ins {
			agg += e.Rate
		} else {
			// Applies only at positions holding e.From (≈ 1/4 of them).
			agg += e.Rate / dna.NumBases
		}
	}
	return agg
}

// maxPositionRate caps the combined event probability at one position.
const maxPositionRate = 0.99

// AppendTransmit implements Channel. Events at each reference position
// are, in cumulative order: each applicable second-order error, generic
// substitution, generic insertion (ref base emitted, extra base appended),
// generic deletion, long deletion (burst of >= 2 bases), else faithful
// copy.
//
// It is the zero-allocation transmit kernel. The reference arrives as
// 2-bit base codes (decode once per cluster with Scratch.RefBases), the
// noisy read is appended to dst as ASCII bytes, and all randomness flows
// through the arena's batched RNG block — filled in bulk up front, then
// backstepped past the unconsumed draws so the generator's stream
// position is exactly what per-call draws would have left. The hot loop
// itself lives in appendTransmit (plan.go).
//
// Output bytes and draw accounting are identical to transmitReference (the
// test oracle in model_ref_test.go) — the golden-seed and differential
// suites enforce this byte-for-byte.
func (m *Model) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte {
	return appendModel(m, dst, ref, r, scr, &letterAlphabet)
}

// appendCodes is AppendTransmit emitting 2-bit base codes instead of
// letters, draw for draw: an intermediate pipeline stage feeds the next
// stage this way with no ASCII round trip. Types embedding *Model
// (PCRAmplification, AgingStage) inherit it, so one that overrode
// AppendTransmit would have to override appendCodes too.
func (m *Model) appendCodes(dst, ref []dna.Base, r *rng.RNG, scr *Scratch) []dna.Base {
	return appendModel(m, dst, ref, r, scr, &codeAlphabet)
}

// appendModel is the body both alphabets share: the plan lookup, one
// capacity growth to the plan's hint, and the batch bound around the
// kernel.
func appendModel[T ~uint8](m *Model, dst []T, ref []dna.Base, r *rng.RNG, scr *Scratch, alpha *[dna.NumBases]T) []T {
	length := len(ref)
	if length == 0 {
		return dst
	}
	p := m.plan(length)
	if need := len(dst) + p.capHint; cap(dst) < need {
		grown := make([]T, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	d := &scr.batch
	d.Bind(r, length+8)
	dst = appendTransmit(p, dst, ref, d, alpha)
	d.Unbind()
	return dst
}

// WithSpatial returns a copy of the model using the given spatial shape;
// the paper's "+ Spatial Skew" tier is WithSpatial(dist.NanoporeSkew()).
func (m *Model) WithSpatial(s dist.Spatial) *Model {
	out := m.shallowCopy()
	out.Spatial = s
	return out
}

// WithLabel returns a copy with a different table label.
func (m *Model) WithLabel(label string) *Model {
	out := m.shallowCopy()
	out.Label = label
	return out
}

// WithSecondOrder returns a copy carrying the given specific errors. To
// keep the aggregate rate unchanged (the §3.3.3 protocol: "a further
// decrease in accuracy despite the same aggregate probability"), the
// generic PerBase and LongDel mass is shrunk by the second-order share.
func (m *Model) WithSecondOrder(errors []SecondOrderError) *Model {
	out := m.shallowCopy()
	out.SecondOrder = append([]SecondOrderError(nil), errors...)
	before := m.AggregateRate()
	if before <= 0 {
		return out
	}
	soMass := 0.0
	for _, e := range errors {
		if e.Kind == align.Ins {
			soMass += e.Rate
		} else {
			soMass += e.Rate / dna.NumBases
		}
	}
	shrink := (before - soMass) / before
	if shrink < 0 {
		shrink = 0
	}
	for b := range out.PerBase {
		out.PerBase[b] = out.PerBase[b].Scale(shrink)
	}
	out.LongDel.Prob *= shrink
	return out
}

// shallowCopy duplicates the model without its compiled-plan cache; the
// copy compiles fresh plans on first AppendTransmit.
func (m *Model) shallowCopy() *Model {
	out := &Model{
		Label:       m.Label,
		PerBase:     m.PerBase,
		SubMatrix:   m.SubMatrix,
		InsDist:     m.InsDist,
		LongDel:     m.LongDel,
		Spatial:     m.Spatial,
		SecondOrder: append([]SecondOrderError(nil), m.SecondOrder...),
	}
	out.LongDel.LengthWeights = append([]float64(nil), m.LongDel.LengthWeights...)
	return out
}
