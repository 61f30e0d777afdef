package codec

import (
	"bytes"
	"testing"
	"testing/quick"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestSequenceCodecRoundTripQuick(t *testing.T) {
	var c Trivial2Bit
	f := func(data []byte) bool {
		s := c.Encode(data)
		if s.Validate() != nil {
			return false
		}
		got, err := c.Decode(s)
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(got) == 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrivial2BitKnownValues(t *testing.T) {
	s := Trivial2Bit{}.Encode([]byte{0b00011011})
	if s != "ACGT" {
		t.Errorf("encode = %q, want ACGT", s)
	}
	if _, err := (Trivial2Bit{}).Decode("ACG"); err == nil {
		t.Error("length not multiple of 4 accepted")
	}
	if _, err := (Trivial2Bit{}).Decode("ACGN"); err == nil {
		t.Error("invalid base accepted")
	}
}

func TestArchiveRoundTripClean(t *testing.T) {
	a := Archive{}
	data := []byte("the quick brown fox jumps over the lazy dog, archived in DNA")
	strands, err := a.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strands {
		if s.Len() != a.StrandLength() {
			t.Fatalf("strand length %d != %d", s.Len(), a.StrandLength())
		}
	}
	got, err := a.Decode(strands)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestArchiveSurvivesErasures(t *testing.T) {
	a := Archive{GroupData: 8, GroupParity: 3}
	data := bytes.Repeat([]byte{0xAB, 0xCD, 0x01}, 40)
	strands, err := a.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Drop up to GroupParity strands from the first group.
	survivors := append([]dna.Strand(nil), strands...)
	survivors = append(survivors[:2], survivors[5:]...) // drop 3 strands
	got, err := a.Decode(survivors)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("erasure recovery mismatch")
	}
}

func TestArchiveSurvivesShuffleAndDuplicates(t *testing.T) {
	a := Archive{}
	data := bytes.Repeat([]byte("dna"), 50)
	strands, _ := a.Encode(data)
	r := rng.New(3)
	pool := append([]dna.Strand(nil), strands...)
	pool = append(pool, strands[0], strands[3]) // duplicates
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	got, err := a.Decode(pool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("shuffled decode mismatch")
	}
}

func TestArchiveSurvivesSubstitutions(t *testing.T) {
	// Per-strand RS parity (4 bytes → 2 byte errors) should absorb a
	// couple of substituted bases per strand.
	a := Archive{StrandParity: 6}
	data := bytes.Repeat([]byte("resilience"), 10)
	strands, _ := a.Encode(data)
	r := rng.New(4)
	corrupted := make([]dna.Strand, len(strands))
	for i, s := range strands {
		b := []byte(s)
		for e := 0; e < 2; e++ {
			p := r.Intn(len(b))
			b[p] = dna.Base(r.Intn(dna.NumBases)).Byte()
		}
		corrupted[i] = dna.Strand(b)
	}
	got, err := a.Decode(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("substitution recovery mismatch")
	}
}

func TestArchiveFailsBeyondRedundancy(t *testing.T) {
	a := Archive{GroupData: 8, GroupParity: 2}
	data := bytes.Repeat([]byte{7}, 200)
	strands, _ := a.Encode(data)
	if _, err := a.Decode(strands[4:]); err == nil {
		t.Error("decode succeeded after losing 4 strands with parity 2")
	}
	if _, err := a.Decode(nil); err == nil {
		t.Error("decode of nothing succeeded")
	}
	if _, err := a.Encode(nil); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestArchiveDecodeReport(t *testing.T) {
	// 156 payload bytes + 4 header = 160 = 8 chunks of 20: exactly one
	// group of 8 data + 3 parity strands.
	a := Archive{StrandParity: 6, GroupData: 8, GroupParity: 3}
	data := bytes.Repeat([]byte("report"), 26)
	strands, err := a.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(strands) != 11 {
		t.Fatalf("layout changed: %d strands, test assumes 11", len(strands))
	}

	t.Run("clean", func(t *testing.T) {
		got, rep, err := a.DecodeReport(strands)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("clean decode: %v", err)
		}
		if rep.Clean != 11 || rep.Repaired != 0 || rep.Erased != 0 || len(rep.Unrecovered) != 0 {
			t.Errorf("clean report: %+v", rep)
		}
		if !rep.Recovered() {
			t.Error("clean decode not Recovered")
		}
	})

	t.Run("erasures within capacity", func(t *testing.T) {
		survivors := append([]dna.Strand(nil), strands[3:]...) // drop 3 data strands
		got, rep, err := a.DecodeReport(survivors)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("erasure decode: %v", err)
		}
		if rep.Erased != 3 || rep.Clean != 8 {
			t.Errorf("erasure report: %+v", rep)
		}
	})

	t.Run("strand repaired by RS", func(t *testing.T) {
		corrupted := append([]dna.Strand(nil), strands...)
		b := []byte(corrupted[4])
		for _, p := range []int{10, 30} {
			if b[p] == 'A' {
				b[p] = 'C'
			} else {
				b[p] = 'A'
			}
		}
		corrupted[4] = dna.Strand(b)
		got, rep, err := a.DecodeReport(corrupted)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("repair decode: %v", err)
		}
		if rep.Repaired != 1 || rep.Clean != 10 {
			t.Errorf("repair report: %+v", rep)
		}
	})

	t.Run("beyond capacity names the lost strands", func(t *testing.T) {
		survivors := append([]dna.Strand(nil), strands[4:]...) // drop 4 > parity 3
		_, rep, err := a.DecodeReport(survivors)
		if err == nil {
			t.Fatal("over-capacity decode succeeded")
		}
		if rep.Recovered() {
			t.Error("failed decode reports Recovered")
		}
		want := []int{0, 1, 2, 3}
		if len(rep.Unrecovered) != len(want) {
			t.Fatalf("Unrecovered = %v, want %v", rep.Unrecovered, want)
		}
		for i, idx := range rep.Unrecovered {
			if idx != want[i] {
				t.Errorf("Unrecovered = %v, want %v", rep.Unrecovered, want)
				break
			}
		}
	})
}

func TestDataChunkCount(t *testing.T) {
	for _, n := range []int{1, 5, 16, 17, 160, 1000} {
		gd, gp := 16, 4
		total := n + ((n+gd-1)/gd)*gp
		if got := dataChunkCount(total, gd, gp); got != n {
			t.Errorf("dataChunkCount(%d) = %d, want %d", total, got, n)
		}
	}
	if dataChunkCount(3, 16, 4) > 0 && dataChunkCount(3, 16, 4)+4 != 3 {
		// 3 total strands is impossible with this layout (1 data → 5).
		if dataChunkCount(3, 16, 4) != -1 {
			t.Error("impossible total accepted")
		}
	}
}

func TestGeneratePrimers(t *testing.T) {
	r := rng.New(5)
	cfg := PrimerConfig{}
	lib, err := GeneratePrimers(8, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) != 8 {
		t.Fatalf("got %d primers", len(lib))
	}
	for i, p := range lib {
		if !cfg.Valid(p) {
			t.Errorf("primer %d violates constraints: %q", i, p)
		}
		gc := p.GCRatio()
		if gc < 0.45 || gc > 0.55 {
			t.Errorf("primer %d GC = %v", i, gc)
		}
		if p.HasHomopolymerOver(2) {
			t.Errorf("primer %d has homopolymer: %q", i, p)
		}
	}
	if _, err := GeneratePrimers(0, cfg, r); err == nil {
		t.Error("zero primers accepted")
	}
}
