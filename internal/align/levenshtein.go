// Package align provides the sequence-comparison primitives the simulator
// is built on: Levenshtein distance, maximum-likelihood edit-script
// extraction (the paper's Appendix B algorithm, in dynamic-programming
// form), and Ratcliff–Obershelp gestalt pattern matching (§3.1) with the
// matching blocks and aligned error positions used for the paper's
// "gestalt-aligned" error profiles.
package align

import "math/bits"

// Distance returns the Levenshtein (unit-cost edit) distance between a and
// b.
func Distance(a, b string) int {
	d, _ := DistanceAtMost(a, b, max(len(a), len(b)))
	return d
}

// DistanceAtMost returns the Levenshtein distance between a and b if it is
// <= k, and (k+1, false) otherwise. It prepares the shorter string as a
// Pattern on the stack and scans the longer one against it, so it
// allocates nothing while the shorter string is at most 512 symbols long
// over at most 7 distinct bytes (any ACGT strand up to 512 nt).
func DistanceAtMost(a, b string, k int) (int, bool) {
	if len(a) < len(b) {
		a, b = b, a
	}
	var p Pattern
	p.Reset(b)
	return p.DistanceAtMost(a, k)
}

// Stack budget of a Pattern: patterns of up to stackWords·64 symbols with
// at most stackSymbols-1 distinct bytes (the four bases plus a few others)
// keep every bit vector inside the Pattern and on the caller's stack.
const (
	stackWords   = 8
	stackSymbols = 8
)

// cutoffEvery is how many text columns the kernel advances between two
// diagonal cutoff checks.
const cutoffEvery = 8

// Pattern is a string prepared for edit-distance queries against many
// texts: Myers' match masks (Peq) and the byte-to-row table are built once
// by Reset, and each DistanceAtMost call only scans its text. The zero
// value is the empty pattern. A Pattern is not safe for concurrent use.
type Pattern struct {
	m, words int
	// sym maps a byte to its Peq row, row 0 staying zero for bytes absent
	// from the pattern; syms[:nsym] lists the pattern's distinct bytes in
	// row order, so Reset clears only the entries the last pattern set.
	sym  [256]uint16
	syms [256]byte
	nsym int
	// peq holds the Peq rows, or big when they outgrow it; vec holds Pv
	// and Mv for patterns longer than stackWords words.
	peq [stackSymbols * stackWords]uint64
	big []uint64
	vec []uint64
}

// Reset prepares p as the pattern.
func (pt *Pattern) Reset(p string) {
	peq := pt.masks()
	clear(peq)
	for _, c := range pt.syms[:pt.nsym] {
		pt.sym[c] = 0
	}
	m := len(p)
	pt.m, pt.words, pt.nsym = m, (m+63)/64, 0
	for i := 0; i < m; i++ {
		if c := p[i]; pt.sym[c] == 0 {
			pt.syms[pt.nsym] = c
			pt.nsym++
			pt.sym[c] = uint16(pt.nsym)
		}
	}
	if n := (pt.nsym + 1) * pt.words; n > len(pt.peq) && n > len(pt.big) {
		pt.big = make([]uint64, n)
	}
	if pt.words > stackWords && 2*pt.words > len(pt.vec) {
		pt.vec = make([]uint64, 2*pt.words)
	}
	peq, words, sym := pt.masks(), pt.words, &pt.sym
	for i := 0; i < m; i++ {
		peq[int(sym[p[i]])*words+i>>6] |= 1 << (i & 63)
	}
}

// masks returns the Peq rows of the current pattern: one row per
// distinct byte plus row 0, words masks each.
func (pt *Pattern) masks() []uint64 {
	n := (pt.nsym + 1) * pt.words
	if n > len(pt.peq) {
		return pt.big[:n]
	}
	return pt.peq[:n]
}

// DistanceAtMost returns the Levenshtein distance between the pattern and
// t if it is <= k, and (k+1, false) otherwise.
//
// It runs Myers' block bit-parallel algorithm, 64 DP rows of the pattern
// per machine word, in O(⌈m/64⌉·|t|) time. Column j of the DP matrix
// D[i][j] (i over the pattern, j over t) is held as two bit vectors of
// vertical deltas D[i][j]-D[i-1][j]: Pv marks the +1 rows and Mv the -1
// rows, all others being 0. Each text symbol advances every 64-row block by
// one column, top block first, passing the horizontal delta that leaves a
// block's bottom row into the top row of the next. The first block
// receives +1 in every column, because D[0][j] = j.
//
// Every cutoffEvery columns the call reads the cell where column j meets
// the diagonal through (m, |t|), and returns as soon as it exceeds k:
// D never decreases along a diagonal, so the answer cannot be lower.
func (pt *Pattern) DistanceAtMost(t string, k int) (int, bool) {
	m, n := pt.m, len(t)
	if k < 0 || m-n > k || n-m > k {
		return k + 1, false
	}
	if m == 0 {
		return n, true
	}
	words := pt.words
	peq := pt.masks()
	var pvBuf, mvBuf [stackWords]uint64
	pv, mv := pvBuf[:], mvBuf[:]
	if words > stackWords {
		pv, mv = pt.vec[:words], pt.vec[words:2*words]
	}
	pv, mv = pv[:words], mv[:words]
	for w := range pv {
		pv[w], mv[w] = ^uint64(0), 0 // D[i][0] = i
	}

	// D ≤ max(m, n) ≤ k everywhere when k covers both lengths, so the
	// cutoff could never fire: scan every column in one stretch.
	every := cutoffEvery
	if k >= max(m, n) {
		every = n
	}
	for j := 0; j < n; {
		for end := min(j+every, n); j < end; j++ {
			eq := peq[int(pt.sym[t[j]])*words:][:words]
			pIn, mIn := uint64(1), uint64(0)
			for w := range pv {
				var ph, mh uint64
				pv[w], mv[w], ph, mh = advance(pv[w], mv[w], eq[w], pIn, mIn)
				pIn, mIn = ph>>63, mh>>63
			}
		}
		// The diagonal through (m, n) crosses column j at row j+m-n.
		if i := j + m - n; i >= 0 && j < n {
			if d := j + rowSum(pv, mv, i); d > k {
				return k + 1, false
			}
		}
	}
	if d := n + rowSum(pv, mv, m); d <= k {
		return d, true
	}
	return k + 1, false
}

// rowSum returns D[i][j] - D[0][j] for the column whose vertical deltas
// are (pv, mv): the +1 rows minus the -1 rows among rows 1…i, row r being
// bit (r-1) mod 64 of word (r-1)/64.
func rowSum(pv, mv []uint64, i int) int {
	s := 0
	for w := 0; w < i>>6; w++ {
		s += bits.OnesCount64(pv[w]) - bits.OnesCount64(mv[w])
	}
	if r := i & 63; r != 0 {
		mask := uint64(1)<<r - 1
		s += bits.OnesCount64(pv[i>>6]&mask) - bits.OnesCount64(mv[i>>6]&mask)
	}
	return s
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
