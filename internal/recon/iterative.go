package recon

import (
	"bytes"
	"sync"

	"dnastore/internal/align"
	"dnastore/internal/dna"
)

// The Iterative family's fixed parameters: the look-ahead of its pass, the
// refinement rounds and TwoWayIterative's agreement k-mer length.
const (
	iterWindow   = 3
	refineRounds = 2
	anchorK      = 8
)

// Iterative is the iterative reconstruction of Sabary et al. [21]. It has
// two phases:
//
//  1. A strictly one-way corrective sweep: position by position from the
//     strand start, the copies vote, the plurality symbol is emitted, and
//     each disagreeing copy is realigned as an inserted, deleted or
//     substituted symbol so it stays aligned with the estimate. This is
//     BMA's one-way look-ahead pass (pass); it stops early once every copy
//     is exhausted, leaving a truncated estimate.
//  2. Iterative refinement (refine): each original copy is realigned to
//     the current estimate with a maximum-likelihood edit script, the
//     alignment columns vote (keep/substitute/delete, plus insertion slots
//     between columns), and the estimate is rebuilt; repeat until fixpoint
//     or two rounds.
//
// The sweep gives the algorithm the paper's observed signature — errors
// propagate linearly toward the strand end (Figs 3.4a/b), residual errors
// are deletion-dominant (§3.4.1), and accuracy is highly sensitive to
// terminal spatial skew (§3.3.2) — while the refinement phase supplies the
// accuracy edge over BMA that Tables 2.1–3.2 report.
type Iterative struct{}

// NewIterative returns the Iterative algorithm.
func NewIterative() Iterative { return Iterative{} }

// Name implements Reconstructor.
func (Iterative) Name() string { return "Iterative" }

// Reconstruct implements Reconstructor.
func (Iterative) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	return refine(cluster, pass(cluster, length, iterWindow, nil), nil, refineRounds)
}

// refine runs up to rounds rounds of polishing, stopping early at a
// fixpoint. weights are per-copy reliability weights (nil means every copy
// weighs 1).
func refine(cluster []dna.Strand, est dna.Strand, weights []float64, rounds int) dna.Strand {
	for r := 0; r < rounds; r++ {
		next := polish(cluster, est, weights)
		if next == est {
			break
		}
		est = next
	}
	return est
}

// polishScratch is polish's recycled working memory.
type polishScratch struct {
	cols []column
	ins  []insVote
	seqs []byte // the bases of every inserted subsequence, back to back
	out  []byte
}

// column holds the votes on one estimate column and on the gap before it.
type column struct {
	keep weightedVotes // read symbols aligned to the column
	del  float64       // weight deleting the column
	ins  float64       // weight inserting a subsequence into the gap
}

// insVote is one copy's inserted subsequence, seqs[start:end], in the gap
// before column pos.
type insVote struct {
	pos, start, end int
	w               float64
}

var polishPool = sync.Pool{New: func() any { return new(polishScratch) }}

// polish realigns every copy to the estimate and rebuilds it from the
// alignment columns: a column is dropped when a majority of copy weight
// deletes it, its symbol is the plurality of the aligned read symbols
// otherwise, and a gap between columns gains the plurality inserted
// subsequence when a majority of copy weight inserts there. Whole inserted
// subsequences are voted as units so a truncated estimate recovers its
// missing tail in one round. weights are per-copy reliability weights (nil
// means every copy weighs 1), so a down-weighted contaminant cannot
// overturn columns.
func polish(cluster []dna.Strand, est dna.Strand, weights []float64) dna.Strand {
	n := est.Len()
	if n == 0 {
		return est
	}
	sc := polishPool.Get().(*polishScratch)
	defer polishPool.Put(sc)
	if cap(sc.cols) < n+1 {
		sc.cols = make([]column, n+1)
	}
	cols := sc.cols[:n+1]
	clear(cols)
	ins, seqs := sc.ins[:0], sc.seqs[:0]
	totalW := 0.0
	for ci, c := range cluster {
		w := 1.0
		if weights != nil {
			w = weights[ci]
		}
		totalW += w
		// Coalesce consecutive insertions at the same reference position
		// into one subsequence vote.
		pending := insVote{pos: -1}
		flush := func() {
			if pending.pos >= 0 {
				pending.end = len(seqs)
				ins = append(ins, pending)
				cols[pending.pos].ins += w
				pending.pos = -1
			}
		}
		for _, op := range align.Script(string(est), string(c), align.ScriptOptions{}) {
			switch op.Kind {
			case align.Ins:
				if pending.pos != op.RefPos {
					flush()
					pending = insVote{pos: op.RefPos, start: len(seqs), w: w}
				}
				seqs = append(seqs, op.ReadBase)
			case align.Equal, align.Sub:
				flush()
				cols[op.RefPos].keep.add(dna.MustBase(op.ReadBase), w)
			case align.Del:
				flush()
				cols[op.RefPos].del += w
			}
		}
		flush()
	}
	sc.ins, sc.seqs = ins, seqs
	out := sc.out[:0]
	for i := 0; i <= n; i++ {
		if cols[i].ins*2 > totalW {
			// Majority of copy weight inserts here: take the plurality
			// sequence.
			out = append(out, pluralityInsert(ins, seqs, i)...)
		}
		if i == n {
			break
		}
		if cols[i].del*2 > totalW {
			continue // majority weight deletes this column
		}
		b, ok := cols[i].keep.winner()
		if !ok {
			b = est.At(i)
		}
		out = append(out, b.Byte())
	}
	sc.out = out
	return dna.Strand(out)
}

// pluralityInsert returns the inserted subsequence with the most weight in
// the gap before column pos; equal weights go to the lexicographically
// smallest sequence. Each sequence's weight is summed in vote order.
func pluralityInsert(ins []insVote, seqs []byte, pos int) []byte {
	var best []byte
	bestW := 0.0
	for a, v := range ins {
		if v.pos != pos {
			continue
		}
		seq := seqs[v.start:v.end]
		counted := false
		for _, u := range ins[:a] {
			if u.pos == pos && bytes.Equal(seqs[u.start:u.end], seq) {
				counted = true
				break
			}
		}
		if counted {
			continue
		}
		sw := 0.0
		for _, u := range ins[a:] {
			if u.pos == pos && bytes.Equal(seqs[u.start:u.end], seq) {
				sw += u.w
			}
		}
		if sw > bestW || (sw == bestW && bytes.Compare(seq, best) < 0) {
			best, bestW = seq, sw
		}
	}
	return best
}

// TwoWayIterative is the paper's §4.3 proposed improvement: the Iterative
// sweep runs forward over the cluster and backward over the reversed
// cluster, the two estimates are joined at an *agreement anchor* — a k-mer
// near the middle on which both passes agree at the same offset, falling
// back to the forward estimate when none exists — and the joined estimate
// is refined exactly as Iterative refines. The anchor avoids the splice-
// junction artifacts that plain mid-point concatenation (BMA-style)
// introduces.
type TwoWayIterative struct {
	// PlainSplice switches to BMA-style fixed mid-point concatenation, for
	// the splice-rule ablation.
	PlainSplice bool
}

// NewTwoWayIterative returns the two-way variant with the anchored splice.
func NewTwoWayIterative() TwoWayIterative { return TwoWayIterative{} }

// Name implements Reconstructor.
func (tw TwoWayIterative) Name() string {
	if tw.PlainSplice {
		return "Iterative-2way-plain"
	}
	return "Iterative-2way"
}

// Reconstruct implements Reconstructor.
func (tw TwoWayIterative) Reconstruct(cluster []dna.Strand, length int) dna.Strand {
	if len(cluster) == 0 || length <= 0 {
		return ""
	}
	forward := pass(cluster, length, iterWindow, nil)
	backward := pass(reverseCluster(cluster), length, iterWindow, nil).Reverse()
	// Renormalise the backward estimate into the forward frame: a truncated
	// backward pass is missing symbols at the strand *start*.
	for backward.Len() < length {
		backward = "A" + backward
	}
	if backward.Len() > length {
		backward = backward[backward.Len()-length:]
	}
	var est dna.Strand
	if tw.PlainSplice {
		est = spliceHalves(forward, backward, length)
	} else {
		est = anchoredSplice(forward, backward, length, anchorK)
	}
	return refine(cluster, est, nil, refineRounds)
}

// anchoredSplice joins the forward and backward estimates at the position
// closest to the middle where both place the same k-mer, preferring the
// smallest displacement from the midpoint. When the estimates never agree,
// the forward estimate is returned unchanged.
func anchoredSplice(f, b dna.Strand, length, k int) dna.Strand {
	mid := length / 2
	for delta := 0; delta <= length/4; delta++ {
		for _, pos := range []int{mid - delta, mid + delta} {
			if pos < 0 || pos+k > length {
				continue
			}
			if pos+k <= f.Len() && pos+k <= b.Len() && f[pos:pos+k] == b[pos:pos+k] {
				return f[:pos] + b[pos:]
			}
			if delta == 0 {
				break // mid-delta and mid+delta coincide
			}
		}
	}
	return f
}
