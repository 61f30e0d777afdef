// Package dist models the spatial distribution of errors within a DNA
// strand — the paper's key insight (§3.3.2) is that this shape, not just the
// aggregate error rate, determines trace-reconstruction accuracy.
//
// A Spatial describes the relative error intensity at each position of a
// strand. Given a strand length and a target aggregate (mean per-base) error
// rate, it produces a per-position rate vector whose mean equals the target
// and whose shape follows the distribution: uniform, A-shaped (triangular
// peak in the middle), V-shaped (inverted), terminal-skewed (the Nanopore
// profile of Fig. 3.2b), or an arbitrary empirical histogram learned from
// data.
package dist

import (
	"fmt"
	"math"
)

// Spatial describes how a given aggregate error rate is spread across the
// positions of a strand.
type Spatial interface {
	// Rates returns a length-long vector of per-position error rates whose
	// arithmetic mean equals rate (up to clamping to [0, maxRate]). It
	// panics if length <= 0 or rate < 0.
	Rates(length int, rate float64) []float64
	// Name returns a short identifier used in tables and CLIs.
	Name() string
}

// maxRate caps any single position's error rate. A per-base rate at or above
// 1 would make every base erroneous, which no physical channel exhibits.
const maxRate = 0.95

// shapeRates converts a vector of non-negative relative weights into rates
// with the requested mean. Clamping at maxRate redistributes the excess mass
// onto unclamped positions so the aggregate stays at the target whenever
// target <= maxRate.
func shapeRates(weights []float64, rate float64) []float64 {
	n := len(weights)
	rates := make([]float64, n)
	if rate == 0 {
		return rates
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		// Degenerate weights: fall back to uniform.
		for i := range rates {
			rates[i] = math.Min(rate, maxRate)
		}
		return rates
	}
	// Target total mass across all positions.
	remaining := rate * float64(n)
	clamped := make([]bool, n)
	// Phase 1: iteratively scale unclamped positions proportionally to their
	// weights; positions that would exceed maxRate are pinned there and
	// their shortfall is spread over the rest.
	for iter := 0; iter < n; iter++ {
		freeWeight := 0.0
		for i, w := range weights {
			if !clamped[i] {
				freeWeight += w
			}
		}
		if freeWeight <= 0 {
			break
		}
		scale := remaining / freeWeight
		over := false
		for i, w := range weights {
			if clamped[i] {
				continue
			}
			r := w * scale
			if r > maxRate {
				rates[i] = maxRate
				clamped[i] = true
				remaining -= maxRate
				over = true
			} else {
				rates[i] = r
			}
		}
		if !over {
			return rates
		}
	}
	// Phase 2: zero-weight positions left no room for the residual mass
	// (e.g. a V-shape at very high aggregate rates). Spread the residual
	// uniformly over every position still below maxRate; the shape flattens
	// slightly but the aggregate error rate — which the experiments control
	// for — is preserved.
	for iter := 0; iter < n; iter++ {
		deficit := 0.0
		for _, r := range rates {
			deficit += r
		}
		deficit = rate*float64(n) - deficit
		if deficit <= 1e-12 {
			break
		}
		free := 0
		for _, r := range rates {
			if r < maxRate {
				free++
			}
		}
		if free == 0 {
			break // target above maxRate everywhere; physically impossible
		}
		add := deficit / float64(free)
		for i, r := range rates {
			if r < maxRate {
				rates[i] = math.Min(r+add, maxRate)
			}
		}
	}
	return rates
}

// Uniform spreads errors evenly across all positions — the assumption made
// by both Heckel et al. and DNASimulator that the paper shows to be wrong
// for Nanopore data.
type Uniform struct{}

// Name implements Spatial.
func (Uniform) Name() string { return "uniform" }

// Rates implements Spatial.
func (Uniform) Rates(length int, rate float64) []float64 {
	checkArgs(length, rate)
	weights := make([]float64, length)
	for i := range weights {
		weights[i] = 1
	}
	return shapeRates(weights, rate)
}

// TriangularA is the A-shaped distribution of §3.4.2: error rates rise
// linearly from ~0 at both strand ends to a peak of 2×rate at the middle
// (the paper's triangular distribution with a=0, b=0.30 for mean 0.15).
type TriangularA struct{}

// Name implements Spatial.
func (TriangularA) Name() string { return "a-shape" }

// Rates implements Spatial.
func (TriangularA) Rates(length int, rate float64) []float64 {
	checkArgs(length, rate)
	return shapeRates(triangleWeights(length, false), rate)
}

// TriangularV is the V-shaped (inverted triangular) distribution of §3.4.2:
// peak error rates at both strand ends, ~0 in the middle.
type TriangularV struct{}

// Name implements Spatial.
func (TriangularV) Name() string { return "v-shape" }

// Rates implements Spatial.
func (TriangularV) Rates(length int, rate float64) []float64 {
	checkArgs(length, rate)
	return shapeRates(triangleWeights(length, true), rate)
}

// triangleWeights returns the density 2·(1−|2x−1|) of a symmetric triangle
// over relative positions x (or its inversion), sampled at position centres.
func triangleWeights(length int, inverted bool) []float64 {
	w := make([]float64, length)
	for i := range w {
		x := (float64(i) + 0.5) / float64(length)
		tri := 1 - math.Abs(2*x-1) // 0 at edges, 1 at centre
		if inverted {
			w[i] = 1 - tri
		} else {
			w[i] = tri
		}
	}
	return w
}

// TerminalSkew is the empirical Nanopore shape of Fig. 3.2b: a small number
// of positions at each end of the strand carry boosted error rates, with the
// end of the strand roughly twice as error-prone as the beginning; interior
// positions are uniform.
type TerminalSkew struct {
	// StartPositions is how many positions at the strand start are boosted
	// (the paper observes 2: positions 0 and 1).
	StartPositions int
	// EndPositions is how many positions at the strand end are boosted
	// (the paper observes 1: the final position).
	EndPositions int
	// StartBoost is the weight multiplier at boosted start positions
	// relative to interior positions.
	StartBoost float64
	// EndBoost is the weight multiplier at boosted end positions; the paper
	// observes roughly 2× the start boost.
	EndBoost float64
}

// NanoporeSkew returns the terminal skew observed on the Nanopore dataset:
// the first two and the last position elevated, with the end twice the
// start (Fig. 3.2b).
func NanoporeSkew() TerminalSkew {
	return TerminalSkew{StartPositions: 2, EndPositions: 1, StartBoost: 6, EndBoost: 12}
}

// Name implements Spatial.
func (s TerminalSkew) Name() string { return "terminal-skew" }

// Rates implements Spatial.
func (s TerminalSkew) Rates(length int, rate float64) []float64 {
	checkArgs(length, rate)
	start, end := s.StartPositions, s.EndPositions
	if start < 0 {
		start = 0
	}
	if end < 0 {
		end = 0
	}
	if start+end > length {
		// Tiny strands: split proportionally.
		start = length / 2
		end = length - start
	}
	sb, eb := s.StartBoost, s.EndBoost
	if sb < 1 {
		sb = 1
	}
	if eb < 1 {
		eb = 1
	}
	w := make([]float64, length)
	for i := range w {
		switch {
		case i < start:
			w[i] = sb
		case i >= length-end:
			w[i] = eb
		default:
			w[i] = 1
		}
	}
	return shapeRates(w, rate)
}

// Empirical wraps an arbitrary per-position weight histogram, typically
// learned from real data by internal/profile. When applied to a strand of a
// different length than the histogram, weights are resampled by linear
// interpolation over relative position.
type Empirical struct {
	// Weights holds relative error intensities; they need not be normalised.
	Weights []float64
	// Label names the source of the histogram in tables.
	Label string
}

// Name implements Spatial.
func (e Empirical) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return "empirical"
}

// Rates implements Spatial.
func (e Empirical) Rates(length int, rate float64) []float64 {
	checkArgs(length, rate)
	if len(e.Weights) == 0 {
		return Uniform{}.Rates(length, rate)
	}
	w := resample(e.Weights, length)
	return shapeRates(w, rate)
}

// resample maps src onto n points. Upsampling (n > len(src)) interpolates
// linearly over relative position. Downsampling (n < len(src)) uses
// area-weighted binning: each output bin averages the source density over
// the exact sub-interval it covers, so the histogram's mass is conserved
// (mean(out) == mean(src) up to rounding) and narrow spikes — like the
// terminal-position boost of Fig 3.2b — are attenuated proportionally
// instead of being aliased away by point sampling at bin centres.
func resample(src []float64, n int) []float64 {
	if len(src) == n {
		out := make([]float64, n)
		copy(out, src)
		return out
	}
	out := make([]float64, n)
	if len(src) == 1 {
		for i := range out {
			out[i] = src[0]
		}
		return out
	}
	if n < len(src) {
		return downsampleArea(src, n)
	}
	for i := range out {
		// Relative position of the centre of output bin i, mapped onto the
		// source index space.
		x := (float64(i) + 0.5) / float64(n) * float64(len(src)-1)
		lo := int(math.Floor(x))
		if lo >= len(src)-1 {
			lo = len(src) - 2
		}
		frac := x - float64(lo)
		out[i] = src[lo]*(1-frac) + src[lo+1]*frac
	}
	return out
}

// downsampleArea shrinks src to n bins by averaging the piecewise-constant
// source density over each output bin's interval. Output bin i covers the
// source-index range [i·S/n, (i+1)·S/n) for S = len(src); every source bin
// contributes to the overlapping output bins in proportion to the overlap
// length, so total mass is conserved exactly.
func downsampleArea(src []float64, n int) []float64 {
	out := make([]float64, n)
	ratio := float64(len(src)) / float64(n) // > 1 source bins per output bin
	for i := range out {
		lo := float64(i) * ratio
		hi := float64(i+1) * ratio
		jLo := int(lo)
		jHi := int(math.Ceil(hi))
		if jHi > len(src) {
			jHi = len(src)
		}
		mass := 0.0
		for j := jLo; j < jHi; j++ {
			l := math.Max(lo, float64(j))
			h := math.Min(hi, float64(j+1))
			if h > l {
				mass += src[j] * (h - l)
			}
		}
		out[i] = mass / ratio
	}
	return out
}

func checkArgs(length int, rate float64) {
	if length <= 0 {
		panic(fmt.Sprintf("dist: non-positive length %d", length))
	}
	if rate < 0 {
		panic(fmt.Sprintf("dist: negative rate %g", rate))
	}
}

// ByName returns the built-in spatial distribution with the given name, for
// CLI flag parsing. Known names: uniform, a-shape, v-shape, terminal-skew.
func ByName(name string) (Spatial, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "a-shape":
		return TriangularA{}, nil
	case "v-shape":
		return TriangularV{}, nil
	case "terminal-skew":
		return NanoporeSkew(), nil
	default:
		return nil, fmt.Errorf("dist: unknown spatial distribution %q", name)
	}
}
