// Package channel implements the noisy channels of DNA storage: the paper's
// progressively refined simulator (naive → conditional probabilities & long
// deletions → spatial skew → second-order errors, §3.3), the DNASimulator
// baseline it is compared against (Algorithm 1, §2.2.1), and the composable
// multi-stage pipeline the paper's §4.2 identifies as future work.
//
// A Channel perturbs one reference strand into one noisy read. The
// Simulator type pairs a Channel with a CoverageModel to produce whole
// clustered datasets.
package channel

import "fmt"

// Channel is a noisy transformation of a single strand, run on the
// append kernel (AppendTransmitter). Implementations must be
// deterministic given the RNG stream and safe for concurrent use as long
// as each goroutine supplies its own RNG and Scratch. Transmit is the
// one-read convenience over the kernel.
type Channel interface {
	AppendTransmitter
	// Name identifies the channel in tables and CLIs.
	Name() string
}

// Rates holds per-base-position probabilities for the three IDS error
// classes. A zero value is an error-free channel.
type Rates struct {
	// Sub is the probability a base is replaced.
	Sub float64
	// Ins is the probability an extra base is emitted after this one.
	Ins float64
	// Del is the probability this base is dropped.
	Del float64
}

// Total returns the combined per-position error probability.
func (r Rates) Total() float64 { return r.Sub + r.Ins + r.Del }

// Scale returns the rates multiplied by f.
func (r Rates) Scale(f float64) Rates {
	return Rates{Sub: r.Sub * f, Ins: r.Ins * f, Del: r.Del * f}
}

// Validate checks that each probability is in [0,1] and the total is < 1.
func (r Rates) Validate() error {
	for _, v := range []float64{r.Sub, r.Ins, r.Del} {
		if v < 0 || v > 1 {
			return fmt.Errorf("channel: rate %v out of [0,1]", v)
		}
	}
	if r.Total() >= 1 {
		return fmt.Errorf("channel: total error rate %v must be < 1", r.Total())
	}
	return nil
}

// EqualMix splits an aggregate per-position error rate p evenly across
// substitutions, insertions and deletions — the parameterisation used by
// the sensitivity analysis of §3.4 where only the aggregate is specified.
func EqualMix(p float64) Rates {
	return Rates{Sub: p / 3, Ins: p / 3, Del: p / 3}
}

// NanoporeMix splits an aggregate rate in the proportions the literature
// reports for Nanopore sequencing: deletion-heavy, substitution-rich,
// insertion-light (roughly 40/40/20 del/sub/ins).
func NanoporeMix(p float64) Rates {
	return Rates{Del: 0.40 * p, Sub: 0.40 * p, Ins: 0.20 * p}
}

// LongDeletion models burst deletions (consecutive deletions of length >= 2,
// §3.3.1): with probability Prob per position a burst starts, its length
// drawn from LengthWeights where index k is the relative weight of length
// MinLen+k. The paper measured Prob = 0.33%, mean length 2.17, with weights
// 84/13/1.8/0.2/0.02 for lengths 2..6.
type LongDeletion struct {
	// Prob is the per-position probability of starting a burst.
	Prob float64
	// MinLen is the shortest burst length (2 in the paper's definition).
	MinLen int
	// LengthWeights[k] is the relative weight of burst length MinLen+k.
	LengthWeights []float64
}

// PaperLongDeletion returns the long-deletion parameters measured on the
// Nanopore dataset in §3.3.1.
func PaperLongDeletion() LongDeletion {
	return LongDeletion{
		Prob:          0.0033,
		MinLen:        2,
		LengthWeights: []float64{84, 13, 1.8, 0.2, 0.02},
	}
}

func (l LongDeletion) minLen() int {
	if l.MinLen < 2 {
		return 2
	}
	return l.MinLen
}

// MeanLen returns the expected burst length under the length distribution.
func (l LongDeletion) MeanLen() float64 {
	if len(l.LengthWeights) == 0 {
		return float64(l.minLen())
	}
	total, sum := 0.0, 0.0
	for k, w := range l.LengthWeights {
		total += w
		sum += w * float64(l.minLen()+k)
	}
	if total <= 0 {
		return float64(l.minLen())
	}
	return sum / total
}
