package codec

import (
	"fmt"

	"dnastore/internal/dna"
)

// Trivial2Bit is the textbook maximal-density mapping A=00, C=01, G=10,
// T=11 (2 bits per base, the Shannon maximum for four symbols). It makes
// no constraint guarantees: long homopolymers and GC drift pass through,
// which is exactly why real systems layer constrained codecs on top.
type Trivial2Bit struct{}

// Encode maps data to a strand, four bases per byte.
func (Trivial2Bit) Encode(data []byte) dna.Strand {
	out := make([]byte, 0, len(data)*4)
	for _, b := range data {
		for shift := 6; shift >= 0; shift -= 2 {
			out = append(out, dna.Base((b>>uint(shift))&3).Byte())
		}
	}
	return dna.Strand(out)
}

// Decode inverts Encode; it fails on a strand that is not whole bytes of
// valid bases.
func (Trivial2Bit) Decode(s dna.Strand) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Len()%4 != 0 {
		return nil, fmt.Errorf("codec: 2-bit strand length %d not a multiple of 4", s.Len())
	}
	out := make([]byte, 0, s.Len()/4)
	for i := 0; i < s.Len(); i += 4 {
		var b byte
		for j := 0; j < 4; j++ {
			b = b<<2 | byte(s.At(i+j))
		}
		out = append(out, b)
	}
	return out, nil
}
