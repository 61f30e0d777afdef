package align

import "fmt"

// Affine-gap alignment (Gotoh's algorithm). Unit-cost edit scripts charge
// a burst of k deletions k times, so the maximum-likelihood script tends
// to scatter burst errors between substitutions; an affine gap penalty
// (open + extend) makes contiguous gaps cheap to extend, grouping burst
// deletions the way the physical channel actually produces them (§3.3.1).
// profile.Options can select affine extraction to compare fitted
// long-deletion statistics under both cost models.

// AffineParams sets the alignment costs. Matches cost 0.
type AffineParams struct {
	// Mismatch is the substitution cost (> 0).
	Mismatch int
	// GapOpen is the cost of starting a gap run (>= 0).
	GapOpen int
	// GapExtend is the per-symbol cost of a gap run (> 0).
	GapExtend int
}

// DefaultAffine returns parameters that trade one substitution for roughly
// 1.5 gap symbols, with bursts strongly preferred over scattered gaps.
func DefaultAffine() AffineParams {
	return AffineParams{Mismatch: 3, GapOpen: 4, GapExtend: 1}
}

// Validate checks parameter sanity.
func (p AffineParams) Validate() error {
	if p.Mismatch <= 0 {
		return fmt.Errorf("align: mismatch cost %d must be positive", p.Mismatch)
	}
	if p.GapOpen < 0 {
		return fmt.Errorf("align: gap-open cost %d must be non-negative", p.GapOpen)
	}
	if p.GapExtend <= 0 {
		return fmt.Errorf("align: gap-extend cost %d must be positive", p.GapExtend)
	}
	return nil
}

const affInf = int32(1) << 29

// matrix state identifiers for traceback.
const (
	stateM = iota // ref and read symbol aligned (match or substitution)
	stateX        // gap in read: reference symbol deleted
	stateY        // gap in ref: read symbol inserted
)

// AffineScript returns a minimum-cost edit script transforming ref into
// read under affine gap costs. The script uses the same Op vocabulary as
// Script; only which script is optimal changes.
func AffineScript(ref, read string, p AffineParams) ([]Op, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := len(ref), len(read)
	cols := m + 1
	// Three cost layers.
	M := make([]int32, (n+1)*cols)
	X := make([]int32, (n+1)*cols)
	Y := make([]int32, (n+1)*cols)
	idx := func(i, j int) int { return i*cols + j }

	open := int32(p.GapOpen)
	ext := int32(p.GapExtend)
	mis := int32(p.Mismatch)

	M[idx(0, 0)] = 0
	X[idx(0, 0)] = affInf
	Y[idx(0, 0)] = affInf
	for i := 1; i <= n; i++ {
		M[idx(i, 0)] = affInf
		X[idx(i, 0)] = open + int32(i)*ext
		Y[idx(i, 0)] = affInf
	}
	for j := 1; j <= m; j++ {
		M[idx(0, j)] = affInf
		X[idx(0, j)] = affInf
		Y[idx(0, j)] = open + int32(j)*ext
	}
	min3 := func(a, b, c int32) int32 {
		if b < a {
			a = b
		}
		if c < a {
			a = c
		}
		return a
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			var sub int32
			if ref[i-1] != read[j-1] {
				sub = mis
			}
			d := idx(i-1, j-1)
			M[idx(i, j)] = min3(M[d], X[d], Y[d]) + sub
			u := idx(i-1, j)
			X[idx(i, j)] = min3(M[u]+open+ext, X[u]+ext, Y[u]+open+ext)
			l := idx(i, j-1)
			Y[idx(i, j)] = min3(M[l]+open+ext, Y[l]+ext, X[l]+open+ext)
		}
	}

	// Traceback from the best terminal state.
	i, j := n, m
	state := stateM
	best := M[idx(n, m)]
	if X[idx(n, m)] < best {
		best, state = X[idx(n, m)], stateX
	}
	if Y[idx(n, m)] < best {
		state = stateY
	}
	ops := make([]Op, 0, max(n, m))
	for i > 0 || j > 0 {
		switch state {
		case stateM:
			var sub int32
			if ref[i-1] != read[j-1] {
				sub = mis
			}
			kind := Equal
			if sub != 0 {
				kind = Sub
			}
			ops = append(ops, Op{Kind: kind, RefPos: i - 1, ReadPos: j - 1, RefBase: ref[i-1], ReadBase: read[j-1]})
			d := idx(i-1, j-1)
			target := M[idx(i, j)] - sub
			switch {
			case M[d] == target:
				state = stateM
			case X[d] == target:
				state = stateX
			default:
				state = stateY
			}
			i, j = i-1, j-1
		case stateX:
			ops = append(ops, Op{Kind: Del, RefPos: i - 1, ReadPos: j, RefBase: ref[i-1]})
			u := idx(i-1, j)
			cur := X[idx(i, j)]
			switch {
			case X[u]+ext == cur:
				state = stateX
			case M[u]+open+ext == cur:
				state = stateM
			default:
				state = stateY
			}
			i--
		case stateY:
			ops = append(ops, Op{Kind: Ins, RefPos: i, ReadPos: j - 1, ReadBase: read[j-1]})
			l := idx(i, j-1)
			cur := Y[idx(i, j)]
			switch {
			case Y[l]+ext == cur:
				state = stateY
			case M[l]+open+ext == cur:
				state = stateM
			default:
				state = stateX
			}
			j--
		}
		// Boundary adjustments: once a coordinate hits zero only one state
		// remains reachable.
		if i == 0 && j > 0 {
			state = stateY
		}
		if j == 0 && i > 0 {
			state = stateX
		}
	}
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return ops, nil
}
