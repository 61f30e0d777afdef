package align

import (
	"testing"

	"dnastore/internal/rng"
)

func TestAffineParamsValidate(t *testing.T) {
	if err := DefaultAffine().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []AffineParams{
		{Mismatch: 0, GapOpen: 1, GapExtend: 1},
		{Mismatch: 1, GapOpen: -1, GapExtend: 1},
		{Mismatch: 1, GapOpen: 1, GapExtend: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params accepted: %+v", p)
		}
	}
	if _, err := AffineScript("A", "A", AffineParams{}); err == nil {
		t.Error("AffineScript accepted zero params")
	}
}

func TestAffineScriptIdentity(t *testing.T) {
	ops, err := AffineScript("ACGTACGT", "ACGTACGT", DefaultAffine())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Kind != Equal {
			t.Fatalf("identity alignment has op %v", op)
		}
	}
	got, err := Apply("ACGTACGT", ops)
	if err != nil || got != "ACGTACGT" {
		t.Fatalf("apply = %q, %v", got, err)
	}
}

func TestAffineScriptRoundTripQuick(t *testing.T) {
	r := rng.New(44)
	for trial := 0; trial < 500; trial++ {
		ref := randStrand(r, r.Intn(40))
		read := randStrand(r, r.Intn(40))
		ops, err := AffineScript(ref, read, DefaultAffine())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Apply(ref, ops)
		if err != nil {
			t.Fatalf("apply failed: %v\nref %q read %q ops %+v", err, ref, read, ops)
		}
		if got != read {
			t.Fatalf("round trip: got %q want %q", got, read)
		}
	}
}

func TestAffineGroupsBursts(t *testing.T) {
	// A 4-base burst deletion: unit-cost scripts may scatter it among
	// substitutions; the affine script must keep it contiguous.
	ref := "ACGTTGCAACGGTACCGATGTTCA"
	read := ref[:8] + ref[12:] // delete 4 bases at position 8
	ops, err := AffineScript(ref, read, DefaultAffine())
	if err != nil {
		t.Fatal(err)
	}
	runs, cur := 0, 0
	dels := 0
	for _, op := range ops {
		if op.Kind == Del {
			dels++
			if cur == 0 {
				runs++
			}
			cur++
		} else {
			cur = 0
		}
	}
	if dels != 4 {
		t.Fatalf("got %d deletions, want 4 (ops %+v)", dels, ops)
	}
	if runs != 1 {
		t.Errorf("deletions split into %d runs, want 1 contiguous burst", runs)
	}
}

func TestAffinePrefersGapOverScatteredSubs(t *testing.T) {
	// With a high mismatch cost, aligning "AAAATTTT" to "AAAA" must be a
	// 4-deletion burst, not substitutions.
	ops, err := AffineScript("AAAATTTT", "AAAA", AffineParams{Mismatch: 10, GapOpen: 2, GapExtend: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Kind == Sub {
			t.Fatalf("unexpected substitution in %+v", ops)
		}
	}
}

func TestAffineCost(t *testing.T) {
	p := DefaultAffine()
	// One burst of 3 deletions: open + 3*extend = 4 + 3 = 7.
	ref := "ACGTACGTAC"
	read := ref[:3] + ref[6:]
	cost, err := AffineCost(ref, read, p)
	if err != nil {
		t.Fatal(err)
	}
	if cost != p.GapOpen+3*p.GapExtend {
		t.Errorf("burst cost = %d, want %d", cost, p.GapOpen+3*p.GapExtend)
	}
	// Identity costs zero.
	if c, _ := AffineCost(ref, ref, p); c != 0 {
		t.Errorf("identity cost = %d", c)
	}
}

func TestAffineEmptyStrings(t *testing.T) {
	p := DefaultAffine()
	ops, err := AffineScript("", "ACG", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("ops = %+v", ops)
	}
	got, _ := Apply("", ops)
	if got != "ACG" {
		t.Errorf("apply = %q", got)
	}
	ops, err = AffineScript("ACG", "", p)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = Apply("ACG", ops)
	if got != "" {
		t.Errorf("apply = %q", got)
	}
	if ops2, err := AffineScript("", "", p); err != nil || len(ops2) != 0 {
		t.Errorf("empty-empty = %+v, %v", ops2, err)
	}
}

// AffineCost returns the affine alignment cost of ref → read, scored from
// AffineScript's script — the oracle of TestAffineCost.
func AffineCost(ref, read string, p AffineParams) (int, error) {
	ops, err := AffineScript(ref, read, p)
	if err != nil {
		return 0, err
	}
	cost := 0
	prev := Equal
	for _, op := range ops {
		switch op.Kind {
		case Sub:
			cost += p.Mismatch
		case Del:
			if prev != Del {
				cost += p.GapOpen
			}
			cost += p.GapExtend
		case Ins:
			if prev != Ins {
				cost += p.GapOpen
			}
			cost += p.GapExtend
		}
		prev = op.Kind
	}
	return cost, nil
}
