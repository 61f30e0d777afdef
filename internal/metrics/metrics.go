// Package metrics implements the paper's evaluation criteria (§3.1): the
// headline per-strand and per-character reconstruction accuracies, the
// Hamming and gestalt-aligned error-position profiles used in every figure,
// the χ² histogram distance, and a census of residual error types.
package metrics

import (
	"fmt"

	"dnastore/internal/align"
	"dnastore/internal/dna"
)

// Accuracy is the paper's key metric pair: per-strand accuracy is the
// percentage of reference strands reconstructed without any error;
// per-character accuracy is the percentage of reference characters
// reconstructed with the correct base at the correct position.
type Accuracy struct {
	// PerStrand is in percent (0–100).
	PerStrand float64
	// PerChar is in percent (0–100).
	PerChar float64
	// Strands is the number of strand pairs evaluated.
	Strands int
	// Chars is the total number of reference characters evaluated.
	Chars int
}

// String renders the accuracy as the paper's tables do.
func (a Accuracy) String() string {
	return fmt.Sprintf("per-strand %.2f%%, per-char %.2f%%", a.PerStrand, a.PerChar)
}

// ComputeAccuracy compares reconstructed strands with their references,
// position by position. A missing reconstruction (empty strand for a
// non-empty reference, e.g. an erasure) scores zero characters correct.
// It panics if the slices differ in length.
func ComputeAccuracy(refs, recons []dna.Strand) Accuracy {
	if len(refs) != len(recons) {
		panic(fmt.Sprintf("metrics: %d references vs %d reconstructions", len(refs), len(recons)))
	}
	var acc Accuracy
	acc.Strands = len(refs)
	perfect := 0
	matched := 0
	for i, ref := range refs {
		rec := recons[i]
		acc.Chars += ref.Len()
		if rec == ref {
			perfect++
			matched += ref.Len()
			continue
		}
		n := ref.Len()
		if rec.Len() < n {
			n = rec.Len()
		}
		for p := 0; p < n; p++ {
			if ref[p] == rec[p] {
				matched++
			}
		}
	}
	if acc.Strands > 0 {
		acc.PerStrand = 100 * float64(perfect) / float64(acc.Strands)
	}
	if acc.Chars > 0 {
		acc.PerChar = 100 * float64(matched) / float64(acc.Chars)
	}
	return acc
}

// PositionProfile is an error-count histogram over strand positions — the
// data behind every Hamming/gestalt figure in the paper. Index p counts
// errors observed at position p; the final bin aggregates positions at or
// beyond the profile length.
type PositionProfile struct {
	// Counts[p] is the number of errors observed at position p.
	Counts []int
	// Pairs is the number of (reference, strand) pairs profiled.
	Pairs int
}

// NewPositionProfile allocates a profile covering positions 0..length
// (inclusive one-past-end bin for length mismatches).
func NewPositionProfile(length int) *PositionProfile {
	return &PositionProfile{Counts: make([]int, length+1)}
}

// add records error positions, clamping overflow into the last bin.
func (p *PositionProfile) add(positions []int) {
	for _, pos := range positions {
		if pos < 0 {
			pos = 0
		}
		if pos >= len(p.Counts) {
			pos = len(p.Counts) - 1
		}
		p.Counts[pos]++
	}
	p.Pairs++
}

// Total returns the total error count across positions.
func (p *PositionProfile) Total() int {
	t := 0
	for _, c := range p.Counts {
		t += c
	}
	return t
}

// Rates returns per-position error rates: count divided by pairs profiled.
func (p *PositionProfile) Rates() []float64 {
	out := make([]float64, len(p.Counts))
	if p.Pairs == 0 {
		return out
	}
	for i, c := range p.Counts {
		out[i] = float64(c) / float64(p.Pairs)
	}
	return out
}

// HammingProfile builds the Hamming error-position profile of reads (or
// reconstructions) against their references: every position that differs
// when the strings are compared index-by-index. This is the comparison in
// which a single early indel propagates to every later position (Fig 3.2a).
// Pairs where the second strand is empty are skipped as erasures.
func HammingProfile(refs, strands []dna.Strand, length int) *PositionProfile {
	prof := NewPositionProfile(length)
	for i, ref := range refs {
		if strands[i].Len() == 0 && ref.Len() > 0 {
			continue
		}
		prof.add(align.HammingErrorPositions(string(ref), string(strands[i])))
	}
	return prof
}

// GestaltProfile builds the gestalt-aligned error-position profile: only
// the *sources* of misalignment count, at the positions gestalt matching
// attributes them to (Fig 3.2b). Pairs with an empty second strand are
// skipped as erasures.
func GestaltProfile(refs, strands []dna.Strand, length int) *PositionProfile {
	prof := NewPositionProfile(length)
	for i, ref := range refs {
		if strands[i].Len() == 0 && ref.Len() > 0 {
			continue
		}
		prof.add(align.GestaltErrorPositions(string(ref), string(strands[i])))
	}
	return prof
}

// ClusterHammingProfile profiles every read of every cluster against its
// reference — the pre-reconstruction noise analysis of Fig 3.2.
func ClusterHammingProfile(refs []dna.Strand, clusters [][]dna.Strand, length int) *PositionProfile {
	prof := NewPositionProfile(length)
	for i, reads := range clusters {
		for _, read := range reads {
			prof.add(align.HammingErrorPositions(string(refs[i]), string(read)))
		}
	}
	return prof
}

// ClusterGestaltProfile is ClusterHammingProfile with gestalt attribution.
func ClusterGestaltProfile(refs []dna.Strand, clusters [][]dna.Strand, length int) *PositionProfile {
	prof := NewPositionProfile(length)
	for i, reads := range clusters {
		for _, read := range reads {
			prof.add(align.GestaltErrorPositions(string(refs[i]), string(read)))
		}
	}
	return prof
}

// ChiSquare returns the χ² distance Σ (a−b)²/(a+b) between two histograms,
// the simulator-evaluation metric suggested in §3.1. Bins empty in both
// histograms contribute nothing. Histograms of different lengths compare
// over the longer length with missing bins as zero.
func ChiSquare(a, b []float64) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		var x, y float64
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x+y == 0 {
			continue
		}
		d := x - y
		sum += d * d / (x + y)
	}
	return sum / 2
}

// Normalize scales a histogram to sum to 1. An all-zero histogram yields
// an all-zero result rather than the NaNs a naive 0/0 division would
// produce; callers comparing such a vector against a real distribution
// must decide the distance themselves (see LengthHistogramDistance).
func Normalize(h []float64) []float64 {
	total := 0.0
	for _, v := range h {
		total += v
	}
	out := make([]float64, len(h))
	if total == 0 {
		return out
	}
	for i, v := range h {
		out[i] = v / total
	}
	return out
}

// ErrorCensus counts residual error operations by type, used for findings
// like "the most common errors after Iterative reconstruction were
// deletions (90% of total)" (§3.4.1).
type ErrorCensus struct {
	Subs, Dels, Inss int
}

// Total returns the number of error operations counted.
func (c ErrorCensus) Total() int { return c.Subs + c.Dels + c.Inss }

// Fraction returns the share of the given kind, or 0 for an empty census.
func (c ErrorCensus) Fraction(kind align.OpKind) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	switch kind {
	case align.Sub:
		return float64(c.Subs) / float64(t)
	case align.Del:
		return float64(c.Dels) / float64(t)
	case align.Ins:
		return float64(c.Inss) / float64(t)
	default:
		return 0
	}
}

// String renders the census percentages.
func (c ErrorCensus) String() string {
	return fmt.Sprintf("sub %.1f%%, del %.1f%%, ins %.1f%% (n=%d)",
		100*c.Fraction(align.Sub), 100*c.Fraction(align.Del), 100*c.Fraction(align.Ins), c.Total())
}

// CensusErrors extracts the maximum-likelihood edit script for each
// (reference, strand) pair and tallies error operations by type. Empty
// strands against non-empty references are skipped as erasures.
func CensusErrors(refs, strands []dna.Strand) ErrorCensus {
	var c ErrorCensus
	for i, ref := range refs {
		if strands[i].Len() == 0 && ref.Len() > 0 {
			continue
		}
		for _, op := range align.Script(string(ref), string(strands[i]), align.ScriptOptions{}) {
			switch op.Kind {
			case align.Sub:
				c.Subs++
			case align.Del:
				c.Dels++
			case align.Ins:
				c.Inss++
			}
		}
	}
	return c
}
