package codec

import (
	"errors"
	"fmt"
	"slices"
)

// RS is a systematic Reed–Solomon code over GF(2⁸) with NSym parity
// symbols per codeword. It corrects e erasures (positions known) and t
// errors (positions unknown) whenever 2t + e <= NSym. Codewords are at
// most 255 bytes long.
//
// Encoding runs the parity remainder through a linear-feedback shift
// register: the register holds the NSym remainder bytes big-endian in
// 64-bit words, and each message byte shifts it left one byte and XORs in
// a precomputed row of the generator's coefficients times the feedback
// byte, so no field multiply is left on the per-byte path.
type RS struct {
	// NSym is the number of parity symbols appended to each message.
	NSym int
	// words is the register width in 64-bit words, ⌈NSym/8⌉.
	words int
	// tab holds 256 rows of words words: row c is gen[1:]·c packed
	// big-endian, byte j of the row (from the top of its first word)
	// being gen[j+1]·c; bytes past NSym are zero.
	tab []uint64
}

// maxWords is the register width of the largest code, NSym = 254.
const maxWords = (254 + 7) / 8

// ErrTooManyErrors reports an uncorrectable codeword.
var ErrTooManyErrors = errors.New("codec: too many errors to correct")

// NewRS builds a code with the given parity symbol count.
func NewRS(nsym int) (*RS, error) {
	if nsym <= 0 || nsym >= 255 {
		return nil, fmt.Errorf("codec: parity symbol count %d out of (0,255)", nsym)
	}
	gen := []byte{1}
	for i := 0; i < nsym; i++ {
		gen = polyMul(gen, []byte{1, gfPow(2, i)})
	}
	words := (nsym + 7) / 8
	tab := make([]uint64, 256*words)
	// Rows for single-bit feedback bytes by multiplication; every other
	// row is the XOR of two earlier ones, since c ↦ gen·c is linear.
	for k := 0; k < 8; k++ {
		row := tab[(1<<k)*words:][:words]
		for j, g := range gen[1:] {
			row[j/8] |= uint64(gfMul(g, 1<<k)) << (56 - 8*(j%8))
		}
	}
	for c := 3; c < 256; c++ {
		low := c & -c
		if low == c {
			continue
		}
		row, a, b := tab[c*words:][:words], tab[(c^low)*words:][:words], tab[low*words:][:words]
		for i := range row {
			row[i] = a[i] ^ b[i]
		}
	}
	return &RS{NSym: nsym, words: words, tab: tab}, nil
}

// MustRS is NewRS that panics on bad parameters, for static configuration.
func MustRS(nsym int) *RS {
	rs, err := NewRS(nsym)
	if err != nil {
		panic(err)
	}
	return rs
}

// Encode appends NSym parity bytes to msg and returns the codeword.
// len(msg)+NSym must not exceed 255.
func (rs *RS) Encode(msg []byte) ([]byte, error) {
	return rs.AppendEncode(nil, msg)
}

// AppendEncode appends the codeword of msg — msg followed by its NSym
// parity bytes — to dst and returns the extended slice. It allocates only
// when dst lacks the capacity. len(msg)+NSym must not exceed 255; on an
// error dst comes back unchanged.
func (rs *RS) AppendEncode(dst, msg []byte) ([]byte, error) {
	if len(msg) == 0 {
		return dst, fmt.Errorf("codec: empty message")
	}
	if len(msg)+rs.NSym > 255 {
		return dst, fmt.Errorf("codec: codeword length %d exceeds 255", len(msg)+rs.NSym)
	}
	var reg [maxWords]uint64
	rs.remainder(msg, &reg)
	n := len(dst)
	dst = slices.Grow(dst, len(msg)+rs.NSym)[:n+len(msg)+rs.NSym]
	copy(dst[n:], msg)
	par := dst[n+len(msg):]
	for i := range par {
		par[i] = byte(reg[i/8] >> (56 - 8*(i%8)))
	}
	return dst, nil
}

// remainder leaves msg·x^NSym mod g in reg: remainder byte i, the
// coefficient of x^(NSym−1−i), is byte i%8 from the top of reg[i/8].
func (rs *RS) remainder(msg []byte, reg *[maxWords]uint64) {
	switch rs.words {
	case 1:
		tab := (*[256]uint64)(rs.tab)
		var r uint64
		for _, b := range msg {
			r = r<<8 ^ tab[b^byte(r>>56)]
		}
		reg[0] = r
	case 2:
		tab := (*[512]uint64)(rs.tab)
		var hi, lo uint64
		for _, b := range msg {
			fb := 2 * int(b^byte(hi>>56))
			hi = (hi<<8 | lo>>56) ^ tab[fb]
			lo = lo<<8 ^ tab[fb+1]
		}
		reg[0], reg[1] = hi, lo
	default:
		w := rs.words
		r := reg[:w]
		for _, b := range msg {
			fb := int(b ^ byte(r[0]>>56))
			row := rs.tab[fb*w:][:w]
			for i := 0; i < w-1; i++ {
				r[i] = (r[i]<<8 | r[i+1]>>56) ^ row[i]
			}
			r[w-1] = r[w-1]<<8 ^ row[w-1]
		}
	}
}

// clean reports whether cw is a codeword. It re-encodes the data part and
// compares the remainder with the stored parity: cw(x) = m(x)·x^NSym +
// p(x) is divisible by g exactly when p equals m(x)·x^NSym mod g, and g,
// with the distinct roots α⁰…α^(NSym−1), divides cw exactly when every
// syndrome cw(αⁱ) is zero — so this is the all-syndromes-zero test
// without a field multiply per byte.
func (rs *RS) clean(cw []byte) bool {
	k := len(cw) - rs.NSym
	var reg [maxWords]uint64
	rs.remainder(cw[:k], &reg)
	for i, p := range cw[k:] {
		if p != byte(reg[i/8]>>(56-8*(i%8))) {
			return false
		}
	}
	return true
}

// syndromes returns the NSym syndromes of the codeword.
func (rs *RS) syndromes(cw []byte) []byte {
	synd := make([]byte, rs.NSym)
	for i := range synd {
		synd[i] = polyEval(cw, gfPow(2, i))
	}
	return synd
}

// Decode corrects the codeword in place and returns the message part.
// erasePos lists known-bad byte positions (0-based from codeword start);
// unknown errors are located automatically. It fails with
// ErrTooManyErrors when the errata exceed capacity.
func (rs *RS) Decode(cw []byte, erasePos []int) ([]byte, error) {
	msg, _, err := rs.DecodeDetail(cw, erasePos)
	return msg, err
}

// DecodeDetail is Decode that also reports how many errata symbols were
// corrected; zero means the codeword was already clean. The count feeds
// repair accounting (clean vs. RS-repaired strands) in erasure reports.
func (rs *RS) DecodeDetail(cw []byte, erasePos []int) ([]byte, int, error) {
	if len(cw) <= rs.NSym {
		return nil, 0, fmt.Errorf("codec: codeword shorter than parity (%d <= %d)", len(cw), rs.NSym)
	}
	if len(cw) > 255 {
		return nil, 0, fmt.Errorf("codec: codeword length %d exceeds 255", len(cw))
	}
	if len(erasePos) > rs.NSym {
		return nil, 0, ErrTooManyErrors
	}
	for _, p := range erasePos {
		if p < 0 || p >= len(cw) {
			return nil, 0, fmt.Errorf("codec: erasure position %d out of range", p)
		}
	}
	if rs.clean(cw) {
		return cw[:len(cw)-rs.NSym], 0, nil
	}
	synd := rs.syndromes(cw)
	// Erasure locator from the known positions.
	eraseLoc := []byte{1}
	for _, p := range erasePos {
		x := gfPow(2, len(cw)-1-p)
		eraseLoc = polyMul(eraseLoc, []byte{x, 1})
	}
	// Berlekamp–Massey seeded with the erasure locator finds the combined
	// errata locator.
	errLoc, err := rs.findErrataLocator(synd, eraseLoc, len(erasePos))
	if err != nil {
		return nil, 0, err
	}
	pos, err := rs.findErrors(errLoc, len(cw))
	if err != nil {
		return nil, 0, err
	}
	if err := rs.correctErrata(cw, synd, pos); err != nil {
		return nil, 0, err
	}
	if !rs.clean(cw) {
		return nil, 0, ErrTooManyErrors
	}
	return cw[:len(cw)-rs.NSym], len(pos), nil
}

// findErrataLocator runs Berlekamp–Massey seeded with the erasure locator.
func (rs *RS) findErrataLocator(synd, eraseLoc []byte, eraseCount int) ([]byte, error) {
	errLoc := append([]byte(nil), eraseLoc...)
	oldLoc := append([]byte(nil), eraseLoc...)
	for i := 0; i < rs.NSym-eraseCount; i++ {
		k := i + eraseCount
		// Discrepancy: delta = S_k + Σ_j Λ_j·S_{k−j} (syndromes are stored
		// little-endian, S_0 first; the locator is big-endian).
		delta := synd[k]
		for j := 1; j < len(errLoc); j++ {
			if k-j >= 0 {
				delta ^= gfMul(errLoc[len(errLoc)-1-j], synd[k-j])
			}
		}
		oldLoc = append(oldLoc, 0)
		if delta != 0 {
			if len(oldLoc) > len(errLoc) {
				newLoc := polyScale(oldLoc, delta)
				oldLoc = polyScale(errLoc, gfInv(delta))
				errLoc = newLoc
			}
			errLoc = polyAdd(errLoc, polyScale(oldLoc, delta))
		}
	}
	// Trim leading zeros.
	for len(errLoc) > 0 && errLoc[0] == 0 {
		errLoc = errLoc[1:]
	}
	errCount := len(errLoc) - 1
	if errCount*2-eraseCount > rs.NSym {
		return nil, ErrTooManyErrors
	}
	return errLoc, nil
}

// findErrors locates errata positions by Chien search over the locator.
func (rs *RS) findErrors(errLoc []byte, n int) ([]int, error) {
	errCount := len(errLoc) - 1
	var pos []int
	// The locator Λ(x) = Π(1 + X_k·x) has roots at X_k⁻¹ with
	// X_k = α^(n-1-p); evaluate at α^(-i) so coefficient position i is a
	// hit exactly when Λ's root matches it.
	for i := 0; i < n; i++ {
		if polyEval(errLoc, gfInv(gfPow(2, i))) == 0 {
			pos = append(pos, n-1-i)
		}
	}
	if len(pos) != errCount {
		return nil, ErrTooManyErrors
	}
	return pos, nil
}

// correctErrata applies Forney's algorithm at the given positions.
func (rs *RS) correctErrata(cw, synd []byte, pos []int) error {
	// Errata locator from the confirmed positions.
	loc := []byte{1}
	n := len(cw)
	for _, p := range pos {
		x := gfPow(2, n-1-p)
		loc = polyMul(loc, []byte{x, 1})
	}
	// Errata evaluator Ω(x) = S(x)·Λ(x) mod x^nsym, with syndromes as a
	// big-endian polynomial S_{nsym-1}..S_0.
	syndPoly := make([]byte, len(synd))
	for i, s := range synd {
		syndPoly[len(synd)-1-i] = s
	}
	omega := polyMul(syndPoly, loc)
	if len(omega) > rs.NSym {
		omega = omega[len(omega)-rs.NSym:]
	}
	// Formal derivative of the locator: keep odd-power coefficients.
	for _, p := range pos {
		xInv := gfInv(gfPow(2, n-1-p))
		// Λ'(x) evaluated via the product over other roots.
		var denom byte = 1
		for _, q := range pos {
			if q == p {
				continue
			}
			xq := gfPow(2, n-1-q)
			denom = gfMul(denom, 1^gfMul(xInv, xq))
		}
		if denom == 0 {
			return ErrTooManyErrors
		}
		// Forney with the product-form denominator: the magnitude is
		// Ω(X⁻¹) / Π_{j≠i}(1 ⊕ X⁻¹X_j); the usual X factor of Λ'(X⁻¹) is
		// already absorbed by the product form.
		magnitude := gfDiv(polyEval(omega, xInv), denom)
		cw[p] ^= magnitude
	}
	return nil
}
