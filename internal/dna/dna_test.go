package dna

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBaseRoundTrip(t *testing.T) {
	for _, c := range []byte{'A', 'C', 'G', 'T'} {
		b, err := BaseFromByte(c)
		if err != nil {
			t.Fatalf("BaseFromByte(%q): %v", c, err)
		}
		if b.Byte() != c {
			t.Errorf("round trip %q -> %v -> %q", c, b, b.Byte())
		}
	}
}

func TestBaseFromByteLowercase(t *testing.T) {
	for _, pair := range []struct {
		lower, upper byte
	}{{'a', 'A'}, {'c', 'C'}, {'g', 'G'}, {'t', 'T'}} {
		b, err := BaseFromByte(pair.lower)
		if err != nil {
			t.Fatalf("BaseFromByte(%q): %v", pair.lower, err)
		}
		if b.Byte() != pair.upper {
			t.Errorf("BaseFromByte(%q) = %v, want %q", pair.lower, b, pair.upper)
		}
	}
}

func TestBaseFromByteInvalid(t *testing.T) {
	for _, c := range []byte{'N', 'X', ' ', 0, '5'} {
		if _, err := BaseFromByte(c); err == nil {
			t.Errorf("BaseFromByte(%q): want error", c)
		}
	}
}

func TestMustBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBase('N') did not panic")
		}
	}()
	MustBase('N')
}

func TestBaseComplement(t *testing.T) {
	want := map[Base]Base{A: T, T: A, C: G, G: C}
	for b, w := range want {
		if got := b.Complement(); got != w {
			t.Errorf("%v.Complement() = %v, want %v", b, got, w)
		}
	}
}

func TestComplementIsInvolution(t *testing.T) {
	for b := Base(0); b < NumBases; b++ {
		if b.Complement().Complement() != b {
			t.Errorf("complement not involutive for %v", b)
		}
	}
}

func TestStrandValidate(t *testing.T) {
	cases := []struct {
		s  Strand
		ok bool
	}{
		{"", true},
		{"ACGT", true},
		{"AAAA", true},
		{"ACGU", false},
		{"AC GT", false},
		{"acgt", true},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%q) = %v, want ok=%v", c.s, err, c.ok)
		}
	}
}

func TestStrandAtAndBases(t *testing.T) {
	s := Strand("ACGT")
	want := []Base{A, C, G, T}
	for i, w := range want {
		if s.At(i) != w {
			t.Errorf("At(%d) = %v, want %v", i, s.At(i), w)
		}
	}
	got := s.AppendBases(nil)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("AppendBases(nil)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFromBasesRoundTrip(t *testing.T) {
	s := Strand("GATTACA")
	if got := FromBases(s.AppendBases(nil)); got != s {
		t.Errorf("FromBases(AppendBases(nil)) = %q, want %q", got, s)
	}
}

func TestReverse(t *testing.T) {
	if got := Strand("ACGT").Reverse(); got != "TGCA" {
		t.Errorf("Reverse = %q, want TGCA", got)
	}
	if got := Strand("").Reverse(); got != "" {
		t.Errorf("Reverse empty = %q", got)
	}
}

func TestReverseIsInvolutionQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		bs := make([]Base, len(raw))
		for i, r := range raw {
			bs[i] = Base(r % NumBases)
		}
		s := FromBases(bs)
		return s.Reverse().Reverse() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGCRatio(t *testing.T) {
	cases := []struct {
		s    Strand
		want float64
	}{
		{"", 0},
		{"AT", 0},
		{"GC", 1},
		{"ACGT", 0.5},
		{"GGGA", 0.75},
	}
	for _, c := range cases {
		if got := c.s.GCRatio(); got != c.want {
			t.Errorf("GCRatio(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestHomopolymers(t *testing.T) {
	s := Strand("AAACGGGGTC")
	runs := s.Homopolymers(2)
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2: %+v", len(runs), runs)
	}
	if runs[0] != (Homopolymer{Pos: 0, Len: 3, Base: A}) {
		t.Errorf("run[0] = %+v", runs[0])
	}
	if runs[1] != (Homopolymer{Pos: 4, Len: 4, Base: G}) {
		t.Errorf("run[1] = %+v", runs[1])
	}
}

func TestHomopolymersMinLenOne(t *testing.T) {
	s := Strand("ACG")
	runs := s.Homopolymers(0) // clamped to 1
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3", len(runs))
	}
	total := 0
	for _, r := range runs {
		total += r.Len
	}
	if total != s.Len() {
		t.Errorf("runs cover %d bases, want %d", total, s.Len())
	}
}

func TestMaxHomopolymerLen(t *testing.T) {
	cases := []struct {
		s    Strand
		want int
	}{
		{"", 0},
		{"A", 1},
		{"ACGT", 1},
		{"AATTTT", 4},
		{"TTTTAA", 4},
	}
	for _, c := range cases {
		if got := c.s.MaxHomopolymerLen(); got != c.want {
			t.Errorf("MaxHomopolymerLen(%q) = %d, want %d", c.s, got, c.want)
		}
	}
	if !Strand("AAA").HasHomopolymerOver(2) {
		t.Error("AAA should have homopolymer over 2")
	}
	if Strand("AAA").HasHomopolymerOver(3) {
		t.Error("AAA should not have homopolymer over 3")
	}
}

func TestHomopolymersCoverStrandQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		bs := make([]Base, len(raw))
		for i, r := range raw {
			bs[i] = Base(r % NumBases)
		}
		s := FromBases(bs)
		runs := s.Homopolymers(1)
		total := 0
		prevEnd := 0
		for _, r := range runs {
			if r.Pos != prevEnd {
				return false // runs must be contiguous
			}
			total += r.Len
			prevEnd = r.Pos + r.Len
			// every byte inside the run must equal the run base
			for i := r.Pos; i < r.Pos+r.Len; i++ {
				if s.At(i) != r.Base {
					return false
				}
			}
		}
		return total == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepeat(t *testing.T) {
	if got := Repeat(G, 4); got != "GGGG" {
		t.Errorf("Repeat(G,4) = %q", got)
	}
	if got := Repeat(A, 0); got != "" {
		t.Errorf("Repeat(A,0) = %q", got)
	}
}

func TestStrandAtPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At on invalid base did not panic")
		}
	}()
	Strand("N").At(0)
}

func TestStrandStringsAreComparable(t *testing.T) {
	m := map[Strand]int{"ACG": 1}
	if m[Strand(strings.Clone("ACG"))] != 1 {
		t.Error("strand map lookup failed")
	}
}

// TestAppendBasesKernels: the bulk kernels must agree with the per-base
// accessors for every length and honour append-to-existing semantics.
func TestAppendBasesKernels(t *testing.T) {
	f := func(raw []uint8, prefix uint8) bool {
		bs := make([]Base, len(raw))
		for i, r := range raw {
			bs[i] = Base(r % NumBases)
		}
		s := FromBases(bs)

		// Strand.AppendBases onto a non-empty prefix.
		pre := make([]Base, int(prefix%5))
		got := s.AppendBases(pre)
		if len(got) != len(pre)+len(bs) {
			return false
		}
		for i, b := range bs {
			if got[len(pre)+i] != b {
				return false
			}
		}

		// AppendLetters reproduces the strand.
		return Strand(AppendLetters(nil, got[len(pre):])) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendBasesReuseNoAlloc: with sufficient capacity the kernels must
// not allocate — the contract the per-worker transmit arenas rely on.
func TestAppendBasesReuseNoAlloc(t *testing.T) {
	s := Strand("ACGTACGTACGTACGTACGTACG")
	codes := make([]Base, 0, s.Len())
	letters := make([]byte, 0, s.Len())
	if n := testing.AllocsPerRun(100, func() {
		codes = s.AppendBases(codes[:0])
		letters = AppendLetters(letters[:0], codes)
	}); n != 0 {
		t.Errorf("kernels allocated %.1f times per run with pre-sized buffers", n)
	}
}
