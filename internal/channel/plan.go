package channel

import (
	"math"

	"dnastore/internal/align"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// The compiled transmission plan.
//
// Model.AppendTransmit is the innermost loop of every experiment: millions of
// calls per table, each visiting every reference position. The naive
// implementation paid, per call, two mutex acquisitions (the spatial and
// second-order multiplier caches) and, per position, two scans over the
// second-order error list — one to accumulate the total mass for the
// probability clamp, one to walk the cumulative thresholds. Those two
// scans also had to stay in float-for-float lockstep or sampling would
// silently bias (the drift hazard fixed by this file: there is now exactly
// one shared table).
//
// A txPlan precomputes, for one strand length, everything transmission
// needs: per-(position, base) cumulative event thresholds — second-order
// slices first, then the generic substitution / insertion / deletion /
// long-deletion boundaries — already scaled by the maxPositionRate clamp,
// plus position-independent samplers for the confusion matrix, the
// insertion distribution and the long-deletion length. The hot loop
// (appendTransmit) runs over 2-bit base codes from a per-worker arena,
// emits either letters or codes (its alphabet parameter), and
// consumes raw 64-bit draws straight out of the batched RNG block; the
// overwhelmingly common faithful-copy case is one table load and one
// integer compare, and every rare-event selection is a branchless binary
// search (lowerBound) instead of a linear threshold walk.
//
// Integer draw space. RNG.Float64 produces exactly the grid
// {k/2^53 : 0 <= k < 2^53}, with k = Uint64()>>11. For any threshold
// t in [0, 1), the product t*2^53 is a power-of-two scaling — exact in
// IEEE-754, never rounded — so
//
//	Float64() < t  ⟺  Uint64()>>11 < ceil(t*2^53)
//
// holds exactly, for every draw and every threshold. compilePlan therefore
// converts every cumulative threshold to its integer grid form (thrBits)
// once, and the hot loop never touches a float: no int→float conversion,
// no multiply, just a shift and an integer compare per position.
//
// RNG-draw preservation contract: a compiled plan consumes exactly the
// same RNG draws, in the same order, against selection boundaries exactly
// equivalent to the reference implementation's (transmitReference, kept
// as a test oracle in model_ref_test.go). The cumulative-threshold tables mirror the reference float
// expression shapes (same operand order, same associativity) before the
// exact grid conversion above. The rare-event samplers are subtler: the
// reference selects by a subtraction chain (u -= w; if u < 0), whose
// float rounding a naive cumulative-sum search would not reproduce.
// compilePlan therefore bisects the 2^53-point draw grid against the
// reference chain itself (drawBoundary) and stores the exact grid
// boundary of every outcome, making binary search equal to the linear
// walk for every possible draw — not merely almost all of them. The
// golden-seed and differential tests in plan_test.go / golden_test.go
// enforce this byte-for-byte.
//
// Plans are cached per strand length in a copy-on-write map behind an
// atomic.Pointer: readers never lock; a cache miss compiles a fresh plan
// and installs it with a compare-and-swap, retrying (and discarding the
// losing compile) on contention. Models must not be mutated after the
// first AppendTransmit — the same assumption the old mutex-guarded caches made.

// drawGrid is the number of representable RNG.Float64 outputs: the draw
// u = float64(x>>11) / 2^53 ranges over exactly the grid {k/2^53}.
const drawGrid = 1 << 53

// thrBits converts a probability threshold to its exact integer grid
// boundary: bits < thrBits(t) ⟺ float64(bits)/2^53 < t for every
// bits < 2^53 (see the package comment). Thresholds at or above 1 map to
// drawGrid, which every draw is below — matching u < t always holding.
func thrBits(t float64) uint64 {
	if t >= 1 {
		return drawGrid
	}
	if t <= 0 {
		return 0
	}
	return uint64(math.Ceil(t * drawGrid))
}

// lowerBound returns the smallest i with u < a[i], or len(a) when u is at
// or above every element. a must be sorted in non-decreasing order. The
// loop shape (conditional add, no data-dependent branches in the body) is
// the branchless binary search the rare-event samplers run per draw.
func lowerBound(a []uint64, u uint64) int {
	base, n := 0, len(a)
	for n > 1 {
		half := n / 2
		if a[base+half-1] <= u {
			base += half
		}
		n -= half
	}
	if n == 1 && a[base] <= u {
		base++
	}
	return base
}

// drawBoundary bisects the draw grid for the smallest representable draw
// at which pred flips to true, and returns its grid index. pred must be
// monotone in the draw (false below the boundary, true at and above it).
// Returns 0 when pred holds everywhere and drawGrid when it holds
// nowhere — drawGrid is above every possible draw, so a lowerBound
// against it always selects, and 0 is below none, so it never does.
func drawBoundary(pred func(u float64) bool) uint64 {
	lo, hi := uint64(0), uint64(drawGrid)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(float64(mid) / drawGrid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// chainBoundaries computes, for each outcome j of a reference-style
// subtraction chain (u := draw*total; u -= w[0..j]; selected at first
// u < 0), the exact grid boundary below which outcome <= j is selected.
// The chain is evaluated with the reference's own float arithmetic inside
// the bisection predicate, so the boundaries are exact for every
// representable draw, including ones where naive cumulative sums would
// round the other way. dst must have len(weights) slots.
func chainBoundaries(dst []uint64, weights []float64, total float64) {
	for j := range weights {
		j := j
		dst[j] = drawBoundary(func(f float64) bool {
			u := f * total
			for k := 0; k <= j; k++ {
				u -= weights[k]
			}
			return u >= 0 // chain survived: selection is beyond outcome j
		})
	}
}

// planEvent is one applicable second-order error at one (position, base):
// the action to take when it fires. Its cumulative threshold lives in the
// parallel txPlan.soThr table, kept separate so the per-draw binary
// search touches a dense integer array.
type planEvent struct {
	// kind is align.Sub, align.Del or align.Ins.
	kind align.OpKind
	// to is the emitted base code (substitution replacement or inserted
	// base); unused for deletions.
	to dna.Base
}

// basePlan holds the compiled thresholds for one (position, base) pair,
// in integer grid form. The boundaries are cumulative: soThr's entries <
// thrSub < thrIns < thrDel < thrLong (non-strictly), and a draw at or
// above thrLong is a faithful copy.
type basePlan struct {
	// soStart and soEnd delimit this cell's slice of txPlan.soEvents and
	// txPlan.soThr.
	soStart, soEnd int32
	// Generic-event grid boundaries, pre-scaled by the clamp factor.
	thrSub, thrIns, thrDel, thrLong uint64
}

// subSampler draws the replacement base for a substitution of one specific
// reference base, reproducing the oracle's Model.sampleSub draw-for-draw.
type subSampler struct {
	// uniform is true when the confusion row is all-zero: one Intn(3) draw.
	uniform bool
	// cdf holds the exact grid selection boundaries of the three
	// candidate bases (chainBoundaries over the confusion row).
	cdf [dna.NumBases - 1]uint64
	// bases holds the candidate output codes, in base order.
	bases [dna.NumBases - 1]dna.Base
	// fallback is the numerically-unreachable overflow result
	// (b.Complement(), kept for bitwise compatibility with the reference).
	fallback dna.Base
}

// sample draws the replacement base.
func (s *subSampler) sample(b dna.Base, d *rng.Batch) dna.Base {
	if s.uniform {
		c := dna.Base(d.Intn(dna.NumBases - 1))
		if c >= b {
			c++
		}
		return c
	}
	if j := lowerBound(s.cdf[:], d.Uint64()>>11); j < len(s.bases) {
		return s.bases[j]
	}
	return s.fallback
}

// insSampler draws the inserted base, reproducing the oracle's
// Model.sampleIns draw-for-draw.
type insSampler struct {
	// uniform is true when InsDist is all-zero: one Intn(4) draw.
	uniform bool
	// cdf holds the exact grid boundaries of the four bases.
	cdf [dna.NumBases]uint64
}

// sample draws the inserted base.
func (s *insSampler) sample(d *rng.Batch) dna.Base {
	if s.uniform {
		return dna.Base(d.Intn(dna.NumBases))
	}
	j := lowerBound(s.cdf[:], d.Uint64()>>11)
	if j == dna.NumBases {
		j = dna.NumBases - 1 // reference falls through to the last base
	}
	return dna.Base(j)
}

// longDelSampler draws a burst length, reproducing the oracle's
// LongDeletion.sampleLen draw-for-draw.
type longDelSampler struct {
	// cdf holds the exact grid boundaries of each burst length;
	// nil when no length distribution is set (no draw consumed).
	cdf    []uint64
	minLen int
}

// sample draws the burst length.
func (s *longDelSampler) sample(d *rng.Batch) int {
	if s.cdf == nil {
		return s.minLen
	}
	k := lowerBound(s.cdf, d.Uint64()>>11)
	if k == len(s.cdf) {
		k = len(s.cdf) - 1 // reference falls through to the longest burst
	}
	return s.minLen + k
}

// txPlan is the compiled transmission plan for one strand length.
type txPlan struct {
	length int
	// pos holds one [NumBases]basePlan per position — or a single shared
	// entry when the model is positionally uniform (no spatial shape, no
	// per-error spatial histograms). posMask is ^0 in the per-position
	// case and 0 in the uniform case, so the hot loop indexes pos[i&mask]
	// branch-free.
	pos     [][dna.NumBases]basePlan
	posMask int
	// copyThr is the flat faithful-copy boundary table, one grid value per
	// (position, base) cell at index (i&posMask)*NumBases + base. The hot
	// loop's common case is a single load and integer compare against it,
	// with no basePlan struct access at all.
	copyThr []uint64
	// soEvents and soThr are the shared flat tables every basePlan slices
	// into — the single source of truth that replaces the old twin
	// accumulation loops. soThr[k] is the grid threshold below which
	// event soEvents[k] (or an earlier one) fires.
	soEvents []planEvent
	soThr    []uint64
	// Samplers for the rare event paths.
	sub     [dna.NumBases]subSampler
	ins     insSampler
	longDel longDelSampler
	// capHint sizes the output scratch buffer: strand length plus expected
	// insertions plus four standard deviations of slack, instead of the
	// old flat length+4 (which under-provisioned insertion-heavy models,
	// forcing an append regrow on nearly every read).
	capHint int
}

// Output alphabets of the kernel: Model.AppendTransmit emits letters,
// Model.appendCodes emits 2-bit codes for the next pipeline stage.
var (
	letterAlphabet = [dna.NumBases]byte{'A', 'C', 'G', 'T'}
	codeAlphabet   = [dna.NumBases]dna.Base{dna.A, dna.C, dna.G, dna.T}
)

// appendTransmit is the transmit hot loop: 2-bit base codes in, one
// alpha[b] appended to dst per emitted base b, all randomness from the
// batched block d. It is one kernel over two alphabets: ASCII letters for
// a read, base codes for an intermediate pipeline stage
// (Pipeline.AppendTransmit), so an intermediate read is never spelled in
// letters and decoded back. Output bases and draw consumption are
// identical to transmitReference on the same stream — see the package
// comment above for why each construct preserves that.
//
// The loop consumes raw draws directly out of the batch's block (blk/j),
// so the steady state makes no function calls at all; local consumption
// is committed with Skip before the rare event paths (rareEvent) hand the
// batch to a sampler, keeping the stream in order. The loop is
// specialised on positional uniformity: the uniform case compares against
// four thresholds held in a local array, the positional case streams
// through the flat copyThr table. Both shapes keep every index expression
// transparently in-bounds so the compiler drops the checks.
func appendTransmit[T ~uint8](p *txPlan, dst []T, ref []dna.Base, d *rng.Batch, alpha *[dna.NumBases]T) []T {
	// A stack copy of the alphabet: read through the pointer, the copy
	// path held it in a register and was ~5% slower than a fixed table.
	a := *alpha
	blk := d.NextBlock()
	j := 0
	if p.posMask == 0 {
		var ct [dna.NumBases]uint64
		copy(ct[:], p.copyThr)
		for i := 0; i < len(ref); {
			if j >= len(blk) {
				d.Skip(j)
				blk, j = d.NextBlock(), 0
				continue
			}
			b := ref[i] & 3
			bits := blk[j] >> 11
			j++
			if bits >= ct[b] {
				// Faithful copy — the overwhelmingly common case.
				dst = append(dst, a[b])
				i++
				continue
			}
			d.Skip(j)
			var adv int
			dst, adv = rareEvent(p, dst, 0, b, bits, d, alpha)
			i += adv
			blk, j = d.NextBlock(), 0
		}
	} else {
		ct := p.copyThr
		for i := 0; i < len(ref); {
			if j >= len(blk) {
				d.Skip(j)
				blk, j = d.NextBlock(), 0
				continue
			}
			b := ref[i] & 3
			bits := blk[j] >> 11
			j++
			if bits >= ct[i*dna.NumBases+int(b)] {
				dst = append(dst, a[b])
				i++
				continue
			}
			d.Skip(j)
			var adv int
			dst, adv = rareEvent(p, dst, i, b, bits, d, alpha)
			i += adv
			blk, j = d.NextBlock(), 0
		}
	}
	d.Skip(j)
	return dst
}

// rareEvent resolves one sub-copy-threshold draw at position class cell
// for base b: the cell's second-order events first (binary search over
// the shared cumulative table), then the generic four-way split. It
// returns the extended output and the number of reference positions
// consumed. The caller has already committed the position draw, so the
// samplers' own draws follow it in exact stream order.
func rareEvent[T ~uint8](p *txPlan, dst []T, cell int, b dna.Base, bits uint64, d *rng.Batch, alpha *[dna.NumBases]T) ([]T, int) {
	bp := &p.pos[cell][b&3]
	if bp.soStart < bp.soEnd {
		e := int(bp.soStart) + lowerBound(p.soThr[bp.soStart:bp.soEnd], bits)
		if e < int(bp.soEnd) {
			// align.Del emits nothing, so it has no case below.
			switch ev := &p.soEvents[e]; ev.kind {
			case align.Sub:
				dst = append(dst, alpha[ev.to&3])
			case align.Ins:
				dst = append(dst, alpha[b&3], alpha[ev.to&3])
			}
			return dst, 1
		}
	}
	switch {
	case bits < bp.thrSub:
		return append(dst, alpha[p.sub[b&3].sample(b, d)&3]), 1
	case bits < bp.thrIns:
		return append(dst, alpha[b&3], alpha[p.ins.sample(d)&3]), 1
	case bits < bp.thrDel:
		return dst, 1
	default: // bits < bp.thrLong: long deletion
		return dst, p.longDel.sample(d)
	}
}

// plan returns the compiled plan for the given length, compiling and
// installing it on first use. Lock-free: concurrent callers may race to
// compile the same length; exactly one CAS wins and the others retry on
// the updated map (finding the winner's plan).
func (m *Model) plan(length int) *txPlan {
	for {
		cur := m.plans.Load()
		if cur != nil {
			if p, ok := (*cur)[length]; ok {
				return p
			}
		}
		p := m.compilePlan(length)
		var next map[int]*txPlan
		if cur != nil {
			next = make(map[int]*txPlan, len(*cur)+1)
			for k, v := range *cur {
				next[k] = v
			}
		} else {
			next = make(map[int]*txPlan, 1)
		}
		next[length] = p
		if m.plans.CompareAndSwap(cur, &next) {
			return p
		}
	}
}

// compilePlan builds the per-position threshold tables for one length.
// Every float expression below deliberately mirrors the reference
// implementation's shape (operand order and associativity) so thresholds
// are bitwise-equal to the ones the reference computes at runtime before
// the exact thrBits grid conversion; the sampler boundary tables go
// further and bisect the reference chains themselves (chainBoundaries).
func (m *Model) compilePlan(length int) *txPlan {
	mult := m.multipliers(length)
	soMult := m.secondOrderMults(length)
	uniform := mult == nil && soMult == nil

	p := &txPlan{length: length}
	nPos := length
	if uniform {
		nPos = 1
		p.posMask = 0
	} else {
		p.posMask = ^0
	}
	p.pos = make([][dna.NumBases]basePlan, nPos)
	p.copyThr = make([]uint64, nPos*dna.NumBases)

	expIns := 0.0 // expected insertions per read, assuming uniform bases
	for i := 0; i < nPos; i++ {
		posMult := 1.0
		if mult != nil {
			posMult = mult[i]
		}
		for b := dna.Base(0); b < dna.NumBases; b++ {
			rates := m.PerBase[b].Scale(posMult)
			longDel := m.LongDel.Prob * posMult

			soTotal := 0.0
			for k, e := range m.SecondOrder {
				if !e.applies(b) {
					continue
				}
				w := 1.0
				if soMult != nil && soMult[k] != nil {
					w = soMult[k][i]
				}
				soTotal += e.Rate * w
			}
			total := soTotal + rates.Total() + longDel
			scale := 1.0
			if total > maxPositionRate {
				scale = maxPositionRate / total
			}

			soStart := int32(len(p.soEvents))
			acc := 0.0
			soIns := 0.0
			for k, e := range m.SecondOrder {
				if !e.applies(b) {
					continue
				}
				w := 1.0
				if soMult != nil && soMult[k] != nil {
					w = soMult[k][i]
				}
				acc += e.Rate * w * scale
				p.soEvents = append(p.soEvents, planEvent{kind: e.Kind, to: e.To})
				p.soThr = append(p.soThr, thrBits(acc))
				if e.Kind == align.Ins {
					soIns += e.Rate * w * scale
				}
			}
			p.pos[i][b] = basePlan{
				soStart: soStart,
				soEnd:   int32(len(p.soEvents)),
				thrSub:  thrBits(acc + rates.Sub*scale),
				thrIns:  thrBits(acc + (rates.Sub+rates.Ins)*scale),
				thrDel:  thrBits(acc + (rates.Sub+rates.Ins+rates.Del)*scale),
				thrLong: thrBits(acc + (rates.Total()+longDel)*scale),
			}
			p.copyThr[i*dna.NumBases+int(b)] = p.pos[i][b].thrLong
			expIns += (rates.Ins*scale + soIns) / dna.NumBases
		}
	}
	if uniform {
		expIns *= float64(length)
	}

	// Position-independent samplers. Each chain passed to chainBoundaries
	// replicates the weight order of the matching reference sampler.
	for b := dna.Base(0); b < dna.NumBases; b++ {
		s := &p.sub[b]
		var row [dna.NumBases - 1]float64
		total := 0.0
		j := 0
		for c := dna.Base(0); c < dna.NumBases; c++ {
			if c == b {
				continue
			}
			row[j] = m.SubMatrix[b][c]
			s.bases[j] = c
			total += m.SubMatrix[b][c]
			j++
		}
		s.uniform = total <= 0
		s.fallback = b.Complement()
		if !s.uniform {
			chainBoundaries(s.cdf[:], row[:], total)
		}
	}
	insTotal := 0.0
	for _, w := range m.InsDist {
		insTotal += w
	}
	p.ins.uniform = insTotal <= 0
	if !p.ins.uniform {
		chainBoundaries(p.ins.cdf[:], m.InsDist[:], insTotal)
	}
	ldTotal := 0.0
	for _, w := range m.LongDel.LengthWeights {
		ldTotal += w
	}
	p.longDel.minLen = m.LongDel.minLen()
	if ldTotal > 0 && len(m.LongDel.LengthWeights) > 0 {
		p.longDel.cdf = make([]uint64, len(m.LongDel.LengthWeights))
		chainBoundaries(p.longDel.cdf, m.LongDel.LengthWeights, ldTotal)
	}

	p.capHint = length + 4 + int(math.Ceil(expIns+4*math.Sqrt(expIns)))
	return p
}

// multipliers returns per-position multipliers with mean 1 encoding the
// model's spatial shape for strands of the given length; nil means uniform.
// Pure function of the model — callers (the plan compiler and the
// reference path) cache at their own layer.
func (m *Model) multipliers(length int) []float64 {
	if m.Spatial == nil {
		return nil // uniform; callers treat nil as all-ones
	}
	// Use a nominal rate to extract the *shape*; dividing by the mean turns
	// it into multipliers. A small nominal rate avoids the clamp at
	// high-skew positions distorting the shape.
	const nominal = 0.01
	rates := m.Spatial.Rates(length, nominal)
	mult := make([]float64, length)
	for i, r := range rates {
		mult[i] = r / nominal
	}
	return mult
}

// secondOrderMults returns, per second-order error, the mean-1
// position-weight vector resampled to the given strand length; nil when no
// error carries a spatial histogram (all-uniform).
func (m *Model) secondOrderMults(length int) [][]float64 {
	if len(m.SecondOrder) == 0 {
		return nil
	}
	var out [][]float64
	for k, e := range m.SecondOrder {
		if len(e.Spatial) == 0 {
			continue // uniform
		}
		emp := dist.Empirical{Weights: e.Spatial}
		const nominal = 0.01
		rates := emp.Rates(length, nominal)
		mult := make([]float64, length)
		for i, r := range rates {
			mult[i] = r / nominal
		}
		if out == nil {
			out = make([][]float64, len(m.SecondOrder))
		}
		out[k] = mult
	}
	return out
}
