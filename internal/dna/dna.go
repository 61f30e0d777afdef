// Package dna provides the fundamental types of the DNA storage channel:
// bases, strands, and the sequence utilities (GC-ratio, homopolymer
// analysis, base complement, reversal) that the rest of the simulator
// builds on.
//
// A DNA strand is modelled as a byte string over the alphabet {A, C, G, T}.
// Strands are represented as Go strings for immutability and cheap slicing;
// the Base type gives a compact 2-bit index for table lookups.
package dna

import (
	"errors"
	"fmt"
	"strings"
)

// Base is one of the four DNA nucleotides, encoded as a 2-bit index.
// The zero value is A.
type Base uint8

// The four nucleotides. The numeric order (A, C, G, T) is alphabetical and
// is relied upon by codec packages for 2-bit encodings.
const (
	A Base = iota
	C
	G
	T
	// NumBases is the size of the DNA alphabet.
	NumBases = 4
)

// ErrInvalidBase reports a byte outside the {A,C,G,T} alphabet.
var ErrInvalidBase = errors.New("dna: invalid base")

// baseLetters maps Base -> ASCII letter.
var baseLetters = [NumBases]byte{'A', 'C', 'G', 'T'}

// letterBases maps ASCII byte -> Base+1 (0 means invalid).
var letterBases = func() [256]uint8 {
	var t [256]uint8
	t['A'], t['C'], t['G'], t['T'] = 1, 2, 3, 4
	t['a'], t['c'], t['g'], t['t'] = 1, 2, 3, 4
	return t
}()

// Byte returns the ASCII letter for b.
func (b Base) Byte() byte { return baseLetters[b&3] }

// String returns the single-letter name of the base.
func (b Base) String() string { return string(baseLetters[b&3]) }

// Complement returns the Watson–Crick complement: A<->T, C<->G.
func (b Base) Complement() Base {
	return 3 - (b & 3)
}

// BaseFromByte converts an ASCII letter (either case) to a Base.
func BaseFromByte(c byte) (Base, error) {
	v := letterBases[c]
	if v == 0 {
		return 0, fmt.Errorf("%w: %q", ErrInvalidBase, c)
	}
	return Base(v - 1), nil
}

// MustBase converts an ASCII letter to a Base and panics on invalid input.
// Intended for constants and tests.
func MustBase(c byte) Base {
	b, err := BaseFromByte(c)
	if err != nil {
		panic(err)
	}
	return b
}

// Strand is an immutable DNA sequence over {A,C,G,T}.
type Strand string

// Validate returns an error if s contains a byte outside the DNA alphabet.
// The empty strand is valid.
func (s Strand) Validate() error {
	for i := 0; i < len(s); i++ {
		if letterBases[s[i]] == 0 {
			return fmt.Errorf("%w: %q at position %d", ErrInvalidBase, s[i], i)
		}
	}
	return nil
}

// Len returns the number of bases in the strand.
func (s Strand) Len() int { return len(s) }

// At returns the base at position i. It panics if i is out of range or the
// byte is not a valid base; call Validate first on untrusted input.
func (s Strand) At(i int) Base {
	v := letterBases[s[i]]
	if v == 0 {
		panic(fmt.Sprintf("dna: invalid base %q at position %d", s[i], i))
	}
	return Base(v - 1)
}

// AppendBases appends the strand's base codes to dst and returns the
// extended slice. Pass a scratch
// dst[:0] to convert a strand once per cluster without allocating, so hot
// loops can index 2-bit codes instead of re-decoding ASCII per read.
// It panics on invalid bytes; call Validate first on untrusted input.
func (s Strand) AppendBases(dst []Base) []Base {
	if n := len(dst) + len(s); cap(dst) < n {
		grown := make([]Base, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < len(s); i++ {
		v := letterBases[s[i]]
		if v == 0 {
			panic(fmt.Sprintf("dna: invalid base %q at position %d", s[i], i))
		}
		dst = append(dst, Base(v-1))
	}
	return dst
}

// AppendLetters appends the ASCII letters of the given base codes to dst —
// the code-to-Strand kernel used to materialise transmit output once per
// read.
func AppendLetters(dst []byte, codes []Base) []byte {
	if n := len(dst) + len(codes); cap(dst) < n {
		grown := make([]byte, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	for _, c := range codes {
		dst = append(dst, baseLetters[c&3])
	}
	return dst
}

// FromBases builds a Strand from a slice of bases.
func FromBases(bs []Base) Strand {
	var sb strings.Builder
	sb.Grow(len(bs))
	for _, b := range bs {
		sb.WriteByte(b.Byte())
	}
	return Strand(sb.String())
}

// Reverse returns the strand with base order reversed (not the reverse
// complement).
func (s Strand) Reverse() Strand {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return Strand(b)
}

// GCRatio returns the fraction of G and C bases in the strand, in [0,1].
// The empty strand has GC-ratio 0.
func (s Strand) GCRatio() float64 {
	if len(s) == 0 {
		return 0
	}
	gc := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'G', 'C', 'g', 'c':
			gc++
		}
	}
	return float64(gc) / float64(len(s))
}

// Homopolymer describes a maximal run of a single repeated base.
type Homopolymer struct {
	// Pos is the 0-based start index of the run.
	Pos int
	// Len is the run length (>= 1).
	Len int
	// Base is the repeated base.
	Base Base
}

// Homopolymers returns every maximal run of length >= minLen, in order of
// position. minLen values below 1 are treated as 1.
func (s Strand) Homopolymers(minLen int) []Homopolymer {
	if minLen < 1 {
		minLen = 1
	}
	var runs []Homopolymer
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if j-i >= minLen {
			runs = append(runs, Homopolymer{Pos: i, Len: j - i, Base: s.At(i)})
		}
		i = j
	}
	return runs
}

// MaxHomopolymerLen returns the length of the longest homopolymer run, or 0
// for the empty strand.
func (s Strand) MaxHomopolymerLen() int {
	maxLen := 0
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if j-i > maxLen {
			maxLen = j - i
		}
		i = j
	}
	return maxLen
}

// HasHomopolymerOver reports whether the strand contains a run strictly
// longer than limit.
func (s Strand) HasHomopolymerOver(limit int) bool {
	return s.MaxHomopolymerLen() > limit
}

// Repeat returns the strand consisting of n copies of base b.
func Repeat(b Base, n int) Strand {
	return Strand(strings.Repeat(string(b.Byte()), n))
}
