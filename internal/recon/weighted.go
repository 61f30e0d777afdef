package recon

import "dnastore/internal/dna"

// WeightedIterative implements the paper's second §4.3 proposal: "using
// heuristics to assign a higher weightage to noisy copies that closely
// align with the partially reconstructed strand". The one-way sweep is
// Iterative's, but each copy carries a reliability weight: agreeing at a
// position multiplies the weight by 1.15 (recovering toward 1, its cap),
// disagreeing multiplies it by 0.7 (down to a floor of 0.05). Votes are
// weight-summed, so a copy that has recently tracked the consensus
// dominates one that has been drifting — exactly the partial-alignment
// heuristic the paper sketches. The refinement weighs each copy by its
// weight at the end of the sweep.
type WeightedIterative struct{}

// NewWeightedIterative returns the weighted variant.
func NewWeightedIterative() WeightedIterative { return WeightedIterative{} }

// Name implements Reconstructor.
func (WeightedIterative) Name() string { return "Iterative-weighted" }

// Reconstruct implements Reconstructor.
func (WeightedIterative) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	weights := make([]float64, len(cluster))
	for j := range weights {
		weights[j] = 1
	}
	est := pass(cluster, length, iterWindow, weights)
	return refine(cluster, est, weights, refineRounds)
}

// weightedVotes accumulates weight-summed votes per base.
type weightedVotes [dna.NumBases]float64

func (v *weightedVotes) add(b dna.Base, w float64) { v[b] += w }

func (v *weightedVotes) winner() (dna.Base, bool) {
	best, bestW := dna.Base(0), 0.0
	for b := dna.Base(0); b < dna.NumBases; b++ {
		if v[b] > bestW {
			best, bestW = b, v[b]
		}
	}
	return best, bestW > 0
}
