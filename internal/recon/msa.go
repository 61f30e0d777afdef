package recon

import (
	"dnastore/internal/align"
	"dnastore/internal/dna"
)

// MSA is classic center-star multiple-sequence-alignment consensus (Yazdi
// et al. [24], one of the trace-reconstruction families §1.1.2 lists): the
// copy with the minimum total edit distance to the rest of the cluster is
// chosen as the star center, every other copy is aligned to it with a
// maximum-likelihood edit script, and the alignment columns vote — a
// column is dropped when a majority deletes it, a gap gains the plurality
// inserted subsequence when a majority inserts there. The consensus is
// re-centred and re-voted until fixpoint.
//
// Unlike BMA and Iterative it has no sequential sweep, so its residual
// errors carry no positional direction — at the cost of O(c²·L²) distance
// computations per cluster for the centre choice.
type MSA struct{}

// msaRounds bounds MSA's re-vote iterations.
const msaRounds = 3

// NewMSA returns the algorithm.
func NewMSA() MSA { return MSA{} }

// Name implements Reconstructor.
func (MSA) Name() string { return "MSA" }

// Reconstruct implements Reconstructor.
func (MSA) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	est := centerCopy(cluster)
	if est.Len() == 0 {
		return ""
	}
	return refine(cluster, est, nil, msaRounds)
}

// centerCopy returns the cluster member minimising the total edit distance
// to all other members; ties break toward the lowest index.
func centerCopy(cluster []dna.Strand) dna.Strand {
	if len(cluster) == 1 {
		return cluster[0]
	}
	best, bestSum := 0, int(^uint(0)>>1)
	for i, c := range cluster {
		sum := 0
		for j, d := range cluster {
			if i == j {
				continue
			}
			sum += align.Distance(string(c), string(d))
			if sum >= bestSum {
				break // cannot beat the incumbent
			}
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return cluster[best]
}
