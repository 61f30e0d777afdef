package recon

import (
	"fmt"

	"dnastore/internal/dna"
)

// BMA is the Bitwise Majority Alignment algorithm with look-ahead, executed
// two-way as the paper describes (§3.2): a forward pass over the copies and
// a backward pass over the reversed copies, spliced at the middle. Errors
// therefore propagate *toward the middle* of the strand, producing the
// A-shaped post-reconstruction Hamming profile of Fig 3.4c.
type BMA struct {
	// Window is the look-ahead length used to classify a disagreeing copy's
	// error (default 3).
	Window int
	// OneWay disables the backward pass; the pure forward execution
	// propagates errors to the end of the strand like Iterative.
	OneWay bool
}

// NewBMA returns the two-way BMA Look-Ahead with the default window.
func NewBMA() BMA { return BMA{Window: 3} }

// NewOneWayBMA returns the forward-only variant.
func NewOneWayBMA() BMA { return BMA{Window: 3, OneWay: true} }

// Name implements Reconstructor.
func (b BMA) Name() string {
	if b.OneWay {
		return fmt.Sprintf("BMA-oneway(w=%d)", b.window())
	}
	return fmt.Sprintf("BMA(w=%d)", b.window())
}

func (b BMA) window() int {
	if b.Window <= 0 {
		return 3
	}
	return b.Window
}

// Reconstruct implements Reconstructor.
func (b BMA) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	forward := pass(cluster, length, b.window(), nil)
	if b.OneWay {
		return forward
	}
	backward := pass(reverseCluster(cluster), length, b.window(), nil).Reverse()
	return spliceHalves(forward, backward, length)
}

// hypothesis identifiers for look-ahead classification.
const (
	hypSub = iota
	hypDel
	hypIns
)

// classify scores the three error hypotheses for a copy whose symbol at
// offset p disagrees with the target window target[0]. target[k] is the
// expected symbol k positions ahead (-1 when unknown). The returned
// hypothesis maximises the number of window symbols explained; ties break
// toward the copy's length budget (surplus → insertion, deficit →
// deletion), then substitution.
func classify(c dna.Strand, p int, target []int8, surplus int) int {
	w := len(target) - 1
	score := func(start, tOff int) int {
		s := 0
		for k := 0; tOff+k <= w; k++ {
			t := target[tOff+k]
			if t < 0 {
				continue
			}
			if start+k < c.Len() && int8(c.At(start+k)) == t {
				s++
			}
		}
		return s
	}
	// Substitution: c[p] is a corrupted target[0]; c[p+1..] aligns with
	// target[1..].
	subScore := score(p+1, 1)
	// Deletion: the copy lacks target[0]; c[p..] aligns with target[1..].
	delScore := score(p, 1)
	// Insertion: c[p] is an extra symbol; c[p+1] should be target[0] and
	// c[p+2..] aligns with target[1..].
	insScore := -1
	if p+1 < c.Len() && target[0] >= 0 && int8(c.At(p+1)) == target[0] {
		insScore = 1 + score(p+2, 1)
	}
	best := max(subScore, delScore, insScore)
	// Gather the winners, then tie-break.
	subWins := subScore == best
	delWins := delScore == best
	insWins := insScore == best
	switch {
	case insWins && surplus > 0:
		return hypIns
	case delWins && surplus < 0:
		return hypDel
	case subWins:
		return hypSub
	case delWins:
		return hypDel
	default:
		return hypIns
	}
}

// The weighted pass's reliability rule (WeightedIterative): a copy's
// weight is multiplied by weightPenalty when it disagrees with the emitted
// symbol, floored at weightFloor, and by weightReward when it agrees,
// capped at 1.
const (
	weightPenalty = 0.7
	weightReward  = 1.15
	weightFloor   = 0.05
)

// pass runs one forward look-ahead execution over the copies with a
// look-ahead of w symbols, emitting up to length symbols and stopping
// early once every copy is exhausted (the tail is then an erasure). It is
// BMA's pass and the corrective sweep of the Iterative family.
//
// Each copy has a pointer. Per output position the copies vote with the
// symbol under their pointer and the plurality symbol is emitted. A copy
// that voted differently is realigned by look-ahead: the expected window
// (the emitted symbol plus a columnwise-majority prediction of the next w
// symbols from the *agreeing* copies) is compared against the copy under
// the substitution, deletion and insertion hypotheses, and the pointer
// advances per the best hypothesis (+1, +0, +2 respectively).
//
// With weights nil every copy's vote counts 1. Otherwise weights holds one
// reliability weight per copy: votes are weight sums, and the pass updates
// each weight by the weightPenalty/weightReward rule as it goes, leaving
// the final weights for the refinement.
func pass(cluster []dna.Strand, length, w int, weights []float64) dna.Strand {
	ptr := make([]int, len(cluster))
	out := make([]byte, 0, length)
	target := make([]int8, w+1)
	futVotes := make([]voteCounts, w)
	for i := 0; i < length; i++ {
		var votes weightedVotes
		for j, c := range cluster {
			if p := ptr[j]; p < len(c) {
				wj := 1.0
				if weights != nil {
					wj = weights[j]
				}
				votes.add(c.At(p), wj)
			}
		}
		maj, ok := votes.winner()
		if !ok {
			break // all copies exhausted: the tail is an erasure
		}
		// Every symbol under a pointer decoded above, so the copies can be
		// compared with the emitted letter byte for byte.
		mb := maj.Byte()
		out = append(out, mb)

		// Predict the next w symbols from copies agreeing at this position
		// (unweighted: agreement at this position is already the filter).
		clear(futVotes)
		for j, c := range cluster {
			if p := ptr[j]; p < len(c) && c[p] == mb {
				for k := 1; k <= w && p+k < len(c); k++ {
					futVotes[k-1].add(c.At(p + k))
				}
			}
		}
		target[0] = int8(maj)
		for k := 0; k < w; k++ {
			if fb, fok := futVotes[k].winner(); fok {
				target[k+1] = int8(fb)
			} else {
				target[k+1] = -1
			}
		}

		needed := length - i // symbols still owed, including this one
		for j, c := range cluster {
			p := ptr[j]
			if p >= len(c) {
				continue
			}
			if c[p] == mb {
				ptr[j] = p + 1
				if weights != nil {
					weights[j] = min(weights[j]*weightReward, 1)
				}
				continue
			}
			if weights != nil {
				weights[j] = max(weights[j]*weightPenalty, weightFloor)
			}
			surplus := (len(c) - p) - needed
			switch classify(c, p, target, surplus) {
			case hypIns:
				ptr[j] = p + 2
			case hypDel:
				// hold pointer
			default:
				ptr[j] = p + 1
			}
		}
	}
	return dna.Strand(out)
}
