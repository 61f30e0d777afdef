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
	forward := b.pass(cluster, length)
	if b.OneWay {
		return forward
	}
	backward := b.pass(reverseCluster(cluster), length).Reverse()
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
func classify[S ~string | ~[]byte](c S, p int, target []int8, surplus int) int {
	w := len(target) - 1
	score := func(start, tOff int) int {
		s := 0
		for k := 0; tOff+k <= w; k++ {
			t := target[tOff+k]
			if t < 0 {
				continue
			}
			if start+k < len(c) && int8(dna.MustBase(c[start+k])) == t {
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
	if p+1 < len(c) && target[0] >= 0 && int8(dna.MustBase(c[p+1])) == target[0] {
		insScore = 1 + score(p+2, 1)
	}
	best := subScore
	if delScore > best {
		best = delScore
	}
	if insScore > best {
		best = insScore
	}
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

// pass runs one forward BMA execution, emitting up to length symbols and
// stopping early if every copy is exhausted.
//
// Per output position the copies vote with the symbol under their pointer
// and the plurality symbol is emitted. A copy that voted differently is
// realigned by look-ahead: the expected window (the emitted symbol plus a
// columnwise-majority prediction of the next Window symbols from the
// *agreeing* copies) is compared against the copy under the substitution,
// deletion and insertion hypotheses, and the pointer advances per the best
// hypothesis (+1, +0, +2 respectively).
func (b BMA) pass(cluster []dna.Strand, length int) dna.Strand {
	ptr := make([]int, len(cluster))
	out := make([]byte, 0, length)
	w := b.window()
	target := make([]int8, w+1)
	futVotes := make([]voteCounts, w)
	for i := 0; i < length; i++ {
		var votes voteCounts
		for j, c := range cluster {
			if ptr[j] < c.Len() {
				votes.add(c.At(ptr[j]))
			}
		}
		maj, ok := votes.winner()
		if !ok {
			break // all copies exhausted: the tail is an erasure
		}
		out = append(out, maj.Byte())

		// Predict the next w symbols from copies agreeing at this position.
		for k := range futVotes {
			futVotes[k] = voteCounts{}
		}
		for j, c := range cluster {
			p := ptr[j]
			if p < c.Len() && c.At(p) == maj {
				for k := 1; k <= w && p+k < c.Len(); k++ {
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
			if p >= c.Len() {
				continue
			}
			if c.At(p) == maj {
				ptr[j] = p + 1
				continue
			}
			surplus := (c.Len() - p) - needed
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
