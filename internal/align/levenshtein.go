// Package align provides the sequence-comparison primitives the simulator
// is built on: Levenshtein distance, maximum-likelihood edit-script
// extraction (the paper's Appendix B algorithm, in dynamic-programming
// form), and Ratcliff–Obershelp gestalt pattern matching (§3.1) with the
// matching blocks and aligned error positions used for the paper's
// "gestalt-aligned" error profiles.
package align

// Distance returns the Levenshtein (unit-cost edit) distance between a and
// b.
func Distance(a, b string) int {
	d, _ := DistanceAtMost(a, b, max(len(a), len(b)))
	return d
}

// DistanceAtMost returns the Levenshtein distance between a and b if it is
// <= k, and (k+1, false) otherwise. It runs Myers' block bit-parallel
// algorithm over the shorter string, 64 DP rows per machine word, in
// O(⌈min(|a|,|b|)/64⌉·max(|a|,|b|)) time, and stops as soon as the
// distance must exceed k. It is the workhorse of the clustering substrate,
// and allocates nothing while the shorter string is at most 512 symbols
// long over at most 7 distinct bytes (any ACGT strand up to 512 nt).
func DistanceAtMost(a, b string, k int) (int, bool) {
	if k < 0 {
		return k + 1, false
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a)-len(b) > k {
		return k + 1, false
	}
	if len(b) == 0 {
		return len(a), true
	}
	if d := bitParallel(b, a, k); d <= k {
		return d, true
	}
	return k + 1, false
}

// Stack budget of bitParallel: patterns of up to stackWords·64 symbols
// with at most stackSymbols-1 distinct bytes (the four bases plus a few
// others) keep every bit vector on the stack.
const (
	stackWords   = 8
	stackSymbols = 8
)

// bitParallel returns the edit distance between pattern p (non-empty) and
// text t, or some value > k once the distance is known to exceed k.
//
// Column j of the DP matrix D[i][j] (i over p, j over t) is held as two
// bit vectors of vertical deltas D[i][j]-D[i-1][j]: Pv marks the +1 rows
// and Mv the -1 rows, all others being 0. The pattern is split into
// 64-row blocks; each text symbol advances every block by one column, top
// block first, passing the horizontal delta that leaves a block's bottom
// row into the top row of the next. The first block receives +1 in every
// column, because D[0][j] = j. D[m][j] is tracked in score.
func bitParallel(p, t string, k int) int {
	m, words := len(p), (len(p)+63)/64

	// sym maps a byte to its Peq row; row 0 stays zero for bytes absent
	// from the pattern.
	var sym [256]uint16
	rows := 1
	for i := 0; i < m; i++ {
		if sym[p[i]] == 0 {
			sym[p[i]] = uint16(rows)
			rows++
		}
	}
	var peqBuf [stackSymbols * stackWords]uint64
	var pvBuf, mvBuf [stackWords]uint64
	peq, pv, mv := peqBuf[:], pvBuf[:], mvBuf[:]
	if rows*words > len(peq) {
		peq = make([]uint64, rows*words)
	}
	if words > stackWords {
		pv, mv = make([]uint64, words), make([]uint64, words)
	}
	peq, pv, mv = peq[:rows*words], pv[:words], mv[:words]
	for i := 0; i < m; i++ {
		peq[int(sym[p[i]])*words+i>>6] |= 1 << (i & 63)
	}
	for w := range pv {
		pv[w] = ^uint64(0) // D[i][0] = i
	}

	top := words - 1
	last := uint(m-1) & 63 // bit of row m in the bottom block
	score := m
	for j := 0; j < len(t); j++ {
		row := int(sym[t[j]]) * words
		eq := peq[row : row+words]
		pIn, mIn := uint64(1), uint64(0)
		for w := 0; w < top; w++ {
			var ph, mh uint64
			pv[w], mv[w], ph, mh = advance(pv[w], mv[w], eq[w], pIn, mIn)
			pIn, mIn = ph>>63, mh>>63
		}
		var ph, mh uint64
		pv[top], mv[top], ph, mh = advance(pv[top], mv[top], eq[top], pIn, mIn)
		score += int(ph>>last&1) - int(mh>>last&1)
		// Each remaining column lowers D[m][·] by at most one.
		if rest := len(t) - 1 - j; score-rest > k {
			return score - rest
		}
	}
	return score
}

// advance moves one 64-row block of vertical deltas (pv, mv) across one
// text column whose match mask is eq, given the horizontal delta entering
// the block's top row as the bit pair (pIn, mIn) for +1 and -1 (Myers
// 1999, Fig. 9). It returns the new vertical deltas and the column's
// horizontal deltas, bit r holding the delta leaving row r of the block.
func advance(pv, mv, eq, pIn, mIn uint64) (npv, nmv, ph, mh uint64) {
	xv := eq | mv
	eq |= mIn
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph = mv | ^(xh | pv)
	mh = pv & xh
	sph, smh := ph<<1|pIn, mh<<1|mIn
	return smh | ^(xv | sph), sph & xv, ph, mh
}

// Similar reports whether the edit distance between a and b is at most k.
func Similar(a, b string, k int) bool {
	_, ok := DistanceAtMost(a, b, k)
	return ok
}
