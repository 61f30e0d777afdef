package align

import (
	"fmt"
	"math"
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
// Sub consume one of each. The byte-sized fields come first so an Op packs
// into 24 bytes.
type Op struct {
	// Kind is the operation type.
	Kind OpKind
	// RefBase is the consumed reference base letter; 0 for Ins.
	RefBase byte
	// ReadBase is the produced read base letter; 0 for Del.
	ReadBase byte
	// RefPos is the 0-based reference position the operation applies to.
	// For Ins it is the reference position *before which* the read base is
	// inserted (== len(ref) for an append at the end).
	RefPos int
	// ReadPos is the 0-based read position produced or, for Del, the read
	// position where the deleted base would have appeared.
	ReadPos int
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

// scratch is Script's recycled working memory: the banded cost matrix and
// the traceback's op kinds. Reconstruction aligns every read of a cluster
// against the running estimate, round after round, so fresh buffers per
// call were most of what a `dnastore get` allocated.
type scratch struct {
	cost  []int32
	kinds []OpKind
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// outside is the cost of a cell outside the band; adding 1 cannot
// overflow it.
const outside = math.MaxInt32 / 2

// Script returns a minimum-cost edit script transforming ref into read.
// The number of non-Equal ops equals Distance(ref, read). Among equally
// minimal scripts, the tie-break policy in opts picks one; the zero options
// value is the deterministic policy.
//
// Only the diagonal band |i−j| ≤ d of the DP matrix is computed, d being
// the distance itself, and the script is the one the full matrix gives:
// the cost of a cell bounds its distance from the diagonal, so a prefix
// path of cost at most d stays inside the band, and the band's values are
// exact wherever the full matrix holds at most d. The traceback only
// visits cells of cost at most d and only accepts a predecessor whose cost
// is at most d, where the two matrices agree; everywhere else both reject
// it, since a banded value never undercuts the full one. So every step
// sees the same candidates in the same order, and Randomize draws the same
// numbers.
func Script(ref, read string, opts ScriptOptions) []Op {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	kinds := sc.trace(ref, read, opts)
	ops := make([]Op, len(kinds))
	i, j := 0, 0
	for x := range ops {
		k := kinds[len(kinds)-1-x]
		switch k {
		case Equal, Sub:
			ops[x] = Op{Kind: k, RefPos: i, ReadPos: j, RefBase: ref[i], ReadBase: read[j]}
			i, j = i+1, j+1
		case Del:
			ops[x] = Op{Kind: Del, RefPos: i, ReadPos: j, RefBase: ref[i]}
			i++
		case Ins:
			ops[x] = Op{Kind: Ins, RefPos: i, ReadPos: j, ReadBase: read[j]}
			j++
		}
	}
	return ops
}

// trace fills the banded DP matrix of ref against read and returns the
// op kinds of the traceback from (m, n) to (0, 0), last op first. The
// result is valid until the scratch is reused.
func (sc *scratch) trace(ref, read string, opts ScriptOptions) []OpKind {
	m, n := len(ref), len(read)
	d := Distance(ref, read)
	// Row i holds cells (i, j) for j = i−d … i+d at offsets 1 … 2d+1;
	// offsets 0 and 2d+2 stay outside, so the up and left neighbours of a
	// band cell never need a bounds check. The fill writes every cell
	// before reading it, so a recycled matrix needs no clearing.
	w := 2*d + 3
	size := (m + 1) * w
	if cap(sc.cost) < size {
		sc.cost = make([]int32, size)
	}
	cost := sc.cost[:size]
	for i := 0; i <= m; i++ {
		row := cost[i*w : (i+1)*w]
		// Offset k holds column j = i+k−d−1; only lo…hi fall inside the
		// matrix (0 ≤ j ≤ n).
		lo, hi := max(1, d+1-i), min(w-2, n+d+1-i)
		for k := range row[:lo] {
			row[k] = outside
		}
		for k := hi + 1; k < w; k++ {
			row[k] = outside
		}
		if i == 0 {
			for k := lo; k <= hi; k++ {
				row[k] = int32(k - d - 1)
			}
			continue
		}
		k := lo
		if i+k-d-1 == 0 {
			row[k] = int32(i)
			k++
		}
		prev, a := cost[(i-1)*w:i*w], ref[i-1]
		for j := i + k - d - 1; k <= hi; k, j = k+1, j+1 {
			best := prev[k]
			if a != read[j-1] {
				best++
			}
			row[k] = min(best, prev[k+1]+1, row[k-1]+1)
		}
	}

	// Traceback from (m, n) to (0, 0), collecting op kinds in reverse.
	kinds := sc.kinds[:0]
	i, j := m, n
	var choice [3]OpKind // candidate buffer reused per step
	for i > 0 || j > 0 {
		at := i*w + j - i + d + 1
		cur := cost[at]
		nc := 0
		// Diagonal: Equal or Sub.
		if i > 0 && j > 0 {
			c := int32(1)
			if ref[i-1] == read[j-1] {
				c = 0
			}
			if cost[at-w]+c == cur {
				if c == 0 {
					choice[nc] = Equal
				} else {
					choice[nc] = Sub
				}
				nc++
			}
		}
		// Up: deletion of ref base.
		if i > 0 && cost[at-w+1]+1 == cur {
			choice[nc] = Del
			nc++
		}
		// Left: insertion of read base.
		if j > 0 && cost[at-1]+1 == cur {
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
		kinds = append(kinds, choice[pick])
		switch choice[pick] {
		case Equal, Sub:
			i, j = i-1, j-1
		case Del:
			i--
		case Ins:
			j--
		}
	}
	sc.kinds = kinds
	return kinds
}
