package recon

import "dnastore/internal/dna"

// WeightedIterative implements the paper's second §4.3 proposal: "using
// heuristics to assign a higher weightage to noisy copies that closely
// align with the partially reconstructed strand". The one-way sweep is
// identical to Iterative's, but each copy carries a reliability weight:
// agreeing at a position multiplies the weight by Reward (recovering
// toward 1), disagreeing multiplies it by Penalty. Votes are
// weight-summed, so a copy that has recently tracked the consensus
// dominates one that has been drifting — exactly the partial-alignment
// heuristic the paper sketches.
type WeightedIterative struct {
	// Window is the look-ahead (default 3).
	Window int
	// Penalty multiplies a copy's weight on disagreement (default 0.7).
	Penalty float64
	// Reward multiplies a copy's weight on agreement, capped at 1
	// (default 1.15).
	Reward float64
	// PolishRounds is as for Iterative (0 = default 2, negative = none).
	PolishRounds int
}

// NewWeightedIterative returns the variant with default parameters.
func NewWeightedIterative() WeightedIterative {
	return WeightedIterative{Window: 3, Penalty: 0.7, Reward: 1.15}
}

// Name implements Reconstructor.
func (w WeightedIterative) Name() string { return "Iterative-weighted" }

func (w WeightedIterative) params() (window int, penalty, reward float64, rounds int) {
	window = w.Window
	if window <= 0 {
		window = 3
	}
	penalty = w.Penalty
	if penalty <= 0 || penalty >= 1 {
		penalty = 0.7
	}
	reward = w.Reward
	if reward < 1 {
		reward = 1.15
	}
	switch {
	case w.PolishRounds < 0:
		rounds = 0
	case w.PolishRounds == 0:
		rounds = 2
	default:
		rounds = w.PolishRounds
	}
	return window, penalty, reward, rounds
}

// Reconstruct implements Reconstructor.
func (w WeightedIterative) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	window, penalty, reward, rounds := w.params()
	est, weights := weightedForward(cluster, length, window, penalty, reward)
	for r := 0; r < rounds; r++ {
		next := polishWeighted(cluster, est, weights)
		if next == est {
			break
		}
		est = next
	}
	return est
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

// weightedForward is the Iterative sweep with reliability-weighted votes;
// it returns the estimate and the final per-copy weights.
func weightedForward(cluster []dna.Strand, length, window int, penalty, reward float64) (dna.Strand, []float64) {
	copies := sweepCopies(cluster, length, false)
	weights := make([]float64, len(cluster))
	for j := range weights {
		weights[j] = 1
	}
	target := make([]int8, window+1)
	futVotes := make([]voteCounts, window)
	out := make([]byte, 0, length)
	for i := 0; i < length; i++ {
		var votes weightedVotes
		for j, c := range copies {
			if i < len(c) {
				votes.add(dna.MustBase(c[i]), weights[j])
			}
		}
		maj, ok := votes.winner()
		if !ok {
			break
		}
		mb := maj.Byte()
		out = append(out, mb)

		// Future prediction from agreeing copies (unweighted: agreement at
		// this position is already the filter).
		for k := range futVotes {
			futVotes[k] = voteCounts{}
		}
		for _, c := range copies {
			if i < len(c) && c[i] == mb {
				for k := 1; k <= window && i+k < len(c); k++ {
					futVotes[k-1].add(dna.MustBase(c[i+k]))
				}
			}
		}
		target[0] = int8(maj)
		for k := 0; k < window; k++ {
			if fb, fok := futVotes[k].winner(); fok {
				target[k+1] = int8(fb)
			} else {
				target[k+1] = -1
			}
		}

		for j := range copies {
			c := copies[j]
			if i >= len(c) {
				continue
			}
			if c[i] == mb {
				weights[j] *= reward
				if weights[j] > 1 {
					weights[j] = 1
				}
				continue
			}
			weights[j] *= penalty
			const weightFloor = 0.05
			if weights[j] < weightFloor {
				weights[j] = weightFloor
			}
			surplus := len(c) - length
			switch classify(c, i, target, surplus) {
			case hypIns:
				copies[j] = append(c[:i], c[i+1:]...)
			case hypDel:
				c = append(c, 0)
				copy(c[i+1:], c[i:len(c)-1])
				c[i] = mb
				copies[j] = c
			default:
				c[i] = mb
			}
		}
	}
	return dna.Strand(out), weights
}
