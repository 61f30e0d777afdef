package align

import (
	"fmt"
	"sync"

	"dnastore/internal/rng"
)

// OpKind classifies one step of an edit script transforming a reference
// strand into a noisy read.
type OpKind uint8

const (
	// Equal copies one reference base unchanged.
	Equal OpKind = iota
	// Sub replaces one reference base with a different read base.
	Sub
	// Del drops one reference base from the read.
	Del
	// Ins emits one extra read base not present in the reference.
	Ins
	numOpKinds
)

// String returns the short name used in histograms and tables.
func (k OpKind) String() string {
	switch k {
	case Equal:
		return "eq"
	case Sub:
		return "sub"
	case Del:
		return "del"
	case Ins:
		return "ins"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one step of an edit script. The script direction is reference →
// read: Del consumes a reference base, Ins produces a read base, Equal and
// Sub consume one of each.
type Op struct {
	// Kind is the operation type.
	Kind OpKind
	// RefPos is the 0-based reference position the operation applies to.
	// For Ins it is the reference position *before which* the read base is
	// inserted (== len(ref) for an append at the end).
	RefPos int
	// ReadPos is the 0-based read position produced or, for Del, the read
	// position where the deleted base would have appeared.
	ReadPos int
	// RefBase is the consumed reference base letter; 0 for Ins.
	RefBase byte
	// ReadBase is the produced read base letter; 0 for Del.
	ReadBase byte
}

// ScriptOptions control edit-script extraction.
type ScriptOptions struct {
	// Randomize selects the paper's Appendix B behaviour: when several edit
	// scripts achieve the minimum distance, tie-breaks during traceback are
	// chosen uniformly at random (requires RNG). When false, ties break
	// deterministically in the order Equal/Sub > Del > Ins, which biases
	// toward contiguous deletions and makes profiling reproducible.
	Randomize bool
	// RNG supplies randomness when Randomize is set.
	RNG *rng.RNG
}

// costPool recycles Script's DP matrices. Reconstruction aligns every read
// of a cluster against the running estimate, round after round, and a
// fresh matrix per call was most of what a `dnastore get` allocated.
var costPool = sync.Pool{New: func() any { return new([]int32) }}

// Script returns a minimum-cost edit script transforming ref into read.
// The number of non-Equal ops equals Distance(ref, read). Among equally
// minimal scripts, the tie-break policy in opts picks one; the zero options
// value is the deterministic policy.
func Script(ref, read string, opts ScriptOptions) []Op {
	m, n := len(ref), len(read)
	// Full DP cost matrix; strands here are short (~110 bases) so the
	// quadratic matrix (~12k cells) is cheap and the traceback is exact.
	// The fill below writes every cell before reading it, so a recycled
	// matrix needs no clearing.
	cols := n + 1
	size := (m + 1) * cols
	buf := costPool.Get().(*[]int32)
	defer costPool.Put(buf)
	if cap(*buf) < size {
		*buf = make([]int32, size)
	}
	cost := (*buf)[:size]
	idx := func(i, j int) int { return i*cols + j }
	for j := 0; j <= n; j++ {
		cost[idx(0, j)] = int32(j)
	}
	for i := 1; i <= m; i++ {
		cost[idx(i, 0)] = int32(i)
		for j := 1; j <= n; j++ {
			c := int32(1)
			if ref[i-1] == read[j-1] {
				c = 0
			}
			best := cost[idx(i-1, j-1)] + c
			if d := cost[idx(i-1, j)] + 1; d < best {
				best = d
			}
			if d := cost[idx(i, j-1)] + 1; d < best {
				best = d
			}
			cost[idx(i, j)] = best
		}
	}

	// Traceback from (m, n) to (0, 0), collecting ops in reverse.
	ops := make([]Op, 0, max(m, n))
	i, j := m, n
	var choice [3]OpKind // candidate buffer reused per step
	for i > 0 || j > 0 {
		cur := cost[idx(i, j)]
		nc := 0
		// Diagonal: Equal or Sub.
		if i > 0 && j > 0 {
			c := int32(1)
			if ref[i-1] == read[j-1] {
				c = 0
			}
			if cost[idx(i-1, j-1)]+c == cur {
				if c == 0 {
					choice[nc] = Equal
				} else {
					choice[nc] = Sub
				}
				nc++
			}
		}
		// Up: deletion of ref base.
		if i > 0 && cost[idx(i-1, j)]+1 == cur {
			choice[nc] = Del
			nc++
		}
		// Left: insertion of read base.
		if j > 0 && cost[idx(i, j-1)]+1 == cur {
			choice[nc] = Ins
			nc++
		}
		if nc == 0 {
			panic("align: inconsistent DP matrix") // unreachable
		}
		pick := 0
		if opts.Randomize && nc > 1 {
			if opts.RNG == nil {
				panic("align: Randomize requires an RNG")
			}
			pick = opts.RNG.Intn(nc)
		}
		switch choice[pick] {
		case Equal:
			ops = append(ops, Op{Kind: Equal, RefPos: i - 1, ReadPos: j - 1, RefBase: ref[i-1], ReadBase: read[j-1]})
			i, j = i-1, j-1
		case Sub:
			ops = append(ops, Op{Kind: Sub, RefPos: i - 1, ReadPos: j - 1, RefBase: ref[i-1], ReadBase: read[j-1]})
			i, j = i-1, j-1
		case Del:
			ops = append(ops, Op{Kind: Del, RefPos: i - 1, ReadPos: j, RefBase: ref[i-1]})
			i--
		case Ins:
			ops = append(ops, Op{Kind: Ins, RefPos: i, ReadPos: j - 1, ReadBase: read[j-1]})
			j--
		}
	}
	// Reverse into forward order.
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return ops
}

// Apply replays an edit script against ref and returns the resulting read.
// It returns an error if the script does not consume ref exactly.
func Apply(ref string, ops []Op) (string, error) {
	out := make([]byte, 0, len(ref))
	i := 0
	for _, op := range ops {
		switch op.Kind {
		case Equal:
			if i >= len(ref) || ref[i] != op.RefBase {
				return "", fmt.Errorf("align: Equal op at ref pos %d does not match reference", i)
			}
			out = append(out, ref[i])
			i++
		case Sub:
			if i >= len(ref) {
				return "", fmt.Errorf("align: Sub op beyond reference end")
			}
			out = append(out, op.ReadBase)
			i++
		case Del:
			if i >= len(ref) {
				return "", fmt.Errorf("align: Del op beyond reference end")
			}
			i++
		case Ins:
			out = append(out, op.ReadBase)
		default:
			return "", fmt.Errorf("align: unknown op kind %v", op.Kind)
		}
	}
	if i != len(ref) {
		return "", fmt.Errorf("align: script consumed %d of %d reference bases", i, len(ref))
	}
	return string(out), nil
}

// CostOf returns the number of non-Equal operations in a script.
func CostOf(ops []Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind != Equal {
			n++
		}
	}
	return n
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
