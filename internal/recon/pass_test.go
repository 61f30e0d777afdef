package recon

import (
	"slices"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// sweepOracle is the Iterative family's original corrective sweep, kept as
// pass's oracle: instead of moving a pointer along each copy it edits
// mutable copies in place (inserted symbols removed, deleted symbols
// re-inserted, substitutions overwritten) so they stay index-aligned with
// the estimate. With weights non-nil it is the weighted twin, updating
// weights by the same rule. reversed sweeps the reversed copies.
func sweepOracle(cluster []dna.Strand, length, w int, weights []float64, reversed bool) []byte {
	copies := make([][]byte, len(cluster))
	for j, c := range cluster {
		cp := []byte(c)
		if reversed {
			slices.Reverse(cp)
		}
		copies[j] = cp
	}
	target := make([]int8, w+1)
	futVotes := make([]voteCounts, w)
	out := make([]byte, 0, length)
	for i := 0; i < length; i++ {
		var votes weightedVotes
		for j, c := range copies {
			if i < len(c) {
				wj := 1.0
				if weights != nil {
					wj = weights[j]
				}
				votes.add(dna.MustBase(c[i]), wj)
			}
		}
		maj, ok := votes.winner()
		if !ok {
			break
		}
		mb := maj.Byte()
		out = append(out, mb)

		for k := range futVotes {
			futVotes[k] = voteCounts{}
		}
		for _, c := range copies {
			if i < len(c) && c[i] == mb {
				for k := 1; k <= w && i+k < len(c); k++ {
					futVotes[k-1].add(dna.MustBase(c[i+k]))
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

		for j := range copies {
			c := copies[j]
			if i >= len(c) {
				continue
			}
			if c[i] == mb {
				if weights != nil {
					weights[j] *= 1.15
					if weights[j] > 1 {
						weights[j] = 1
					}
				}
				continue
			}
			if weights != nil {
				weights[j] *= 0.7
				if weights[j] < 0.05 {
					weights[j] = 0.05
				}
			}
			switch classifyOracle(c, i, target, len(c)-length) {
			case hypIns:
				// Remove the inserted symbol; the matching one slides in.
				copies[j] = append(c[:i], c[i+1:]...)
			case hypDel:
				// Re-insert the plurality symbol at this position.
				c = append(c, 0)
				copy(c[i+1:], c[i:len(c)-1])
				c[i] = mb
				copies[j] = c
			default:
				// Substitution: overwrite in place.
				c[i] = mb
			}
		}
	}
	return out
}

// classifyOracle is classify over a mutable copy, kept apart from classify
// so the oracle shares no look-ahead code with pass.
func classifyOracle(c []byte, p int, target []int8, surplus int) int {
	w := len(target) - 1
	score := func(start, tOff int) int {
		s := 0
		for k := 0; tOff+k <= w; k++ {
			t := target[tOff+k]
			if t >= 0 && start+k < len(c) && int8(dna.MustBase(c[start+k])) == t {
				s++
			}
		}
		return s
	}
	subScore := score(p+1, 1)
	delScore := score(p, 1)
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
	switch {
	case insScore == best && surplus > 0:
		return hypIns
	case delScore == best && surplus < 0:
		return hypDel
	case subScore == best:
		return hypSub
	case delScore == best:
		return hypDel
	default:
		return hypIns
	}
}

// checkPassAgainstOracle runs pass and the oracle on one cluster, weighted
// or not and forward or reversed, and reports any difference in the
// estimate or the final weights.
func checkPassAgainstOracle(t *testing.T, cluster []dna.Strand, length, w int, weighted, reversed bool) {
	t.Helper()
	var got, want []float64
	if weighted {
		got = make([]float64, len(cluster))
		want = make([]float64, len(cluster))
		for j := range got {
			got[j], want[j] = 1, 1
		}
	}
	in := cluster
	if reversed {
		in = reverseCluster(cluster)
	}
	est := pass(in, length, w, got)
	oracle := dna.Strand(sweepOracle(cluster, length, w, want, reversed))
	if est != oracle {
		t.Fatalf("cluster %q length %d window %d weighted %v reversed %v:\npass   %q\noracle %q",
			cluster, length, w, weighted, reversed, est, oracle)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cluster %q length %d window %d reversed %v: weights %v, oracle %v",
			cluster, length, w, reversed, got, want)
	}
}

// TestPassMatchesSweepOracle compares pass with the mutating sweep over
// seeded random clusters: 1–12 copies of a reference of length 1–160,
// read through a naive channel at 0–25% error, some copies cut to a
// prefix (so copies are empty, short or long), at windows 1–5, forward
// and reversed, weighted and unweighted.
func TestPassMatchesSweepOracle(t *testing.T) {
	r := rng.New(31)
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		length := 1 + r.Intn(160)
		ref := channel.RandomReferences(1, length, r.Uint64())[0]
		m := channel.NewNaive("n", channel.EqualMix(0.25*r.Float64()))
		cluster := make([]dna.Strand, 1+r.Intn(12))
		for k := range cluster {
			c := channel.Transmit(m, ref, r)
			if r.Intn(5) == 0 {
				c = c[:r.Intn(c.Len()+1)]
			}
			cluster[k] = c
		}
		w := 1 + r.Intn(5)
		for _, weighted := range []bool{false, true} {
			for _, reversed := range []bool{false, true} {
				checkPassAgainstOracle(t, cluster, length, w, weighted, reversed)
			}
		}
	}
}

// FuzzPass compares pass with the mutating sweep on arbitrary clusters:
// each data byte is a base (its low two bits) or, at 0xff, the end of a
// copy. At most 12 copies and a designed length of at most 160 are used;
// the window is 1–5, and flags select weighting (bit 0) and reversal
// (bit 1).
func FuzzPass(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xff, 0, 1, 3, 0xff, 0, 2, 2, 3}, uint8(4), uint8(3), uint8(0))
	f.Add([]byte{1, 1, 1, 0xff, 0xff, 1, 2, 1, 1}, uint8(5), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, length, window, flags uint8) {
		var cluster []dna.Strand
		var cur []byte
		for _, b := range data {
			if b == 0xff {
				cluster = append(cluster, dna.Strand(cur))
				cur = nil
				continue
			}
			cur = append(cur, dna.Base(b&3).Byte())
		}
		cluster = append(cluster, dna.Strand(cur))
		if len(cluster) > 12 {
			cluster = cluster[:12]
		}
		checkPassAgainstOracle(t, cluster, 1+int(length)%160, 1+int(window)%5, flags&1 != 0, flags&2 != 0)
	})
}
