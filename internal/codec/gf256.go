// Package codec implements the encode/decode ends of the DNA storage
// pipeline (§1.1 steps 2 and 6): the trivial 2-bit binary↔DNA mapping,
// logical redundancy (a full Reed–Solomon code over GF(2⁸) correcting both
// errors and erasures, as in Grass et al. [12]), strand indexing for file
// layout, and primer design for PCR random access (Yazdi/Bornholt,
// §1.1.1).
package codec

// GF(2⁸) arithmetic with the primitive polynomial x⁸+x⁴+x³+x²+1 (0x11d),
// the field used by most storage Reed–Solomon deployments.

const gfPoly = 0x11d

var gfExp [512]byte // α^i, doubled to avoid mod in mul
var gfLog [256]byte

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b; it panics on division by zero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("codec: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfPow returns α-base exponentiation x^p.
func gfPow(x byte, p int) byte {
	if x == 0 {
		if p == 0 {
			return 1
		}
		return 0
	}
	l := (int(gfLog[x]) * p) % 255
	if l < 0 {
		l += 255
	}
	return gfExp[l]
}

// gfInv returns the multiplicative inverse.
func gfInv(x byte) byte {
	if x == 0 {
		panic("codec: GF(256) inverse of zero")
	}
	return gfExp[255-int(gfLog[x])]
}

// Polynomials over GF(256) are []byte with index 0 holding the
// highest-degree coefficient (big-endian), matching the classic
// Reed–Solomon formulation.

// polyScale multiplies every coefficient by x.
func polyScale(p []byte, x byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		out[i] = gfMul(c, x)
	}
	return out
}

// polyAdd adds (XORs) two polynomials.
func polyAdd(p, q []byte) []byte {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make([]byte, n)
	copy(out[n-len(p):], p)
	for i, c := range q {
		out[n-len(q)+i] ^= c
	}
	return out
}

// polyMul multiplies two polynomials.
func polyMul(p, q []byte) []byte {
	out := make([]byte, len(p)+len(q)-1)
	for i, pc := range p {
		if pc == 0 {
			continue
		}
		for j, qc := range q {
			out[i+j] ^= gfMul(pc, qc)
		}
	}
	return out
}

// polyEval evaluates the polynomial at x using Horner's scheme.
func polyEval(p []byte, x byte) byte {
	var y byte
	if len(p) > 0 {
		y = p[0]
	}
	for i := 1; i < len(p); i++ {
		y = gfMul(y, x) ^ p[i]
	}
	return y
}
