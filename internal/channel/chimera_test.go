package channel

import (
	"math"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// chimeraSim builds a Simulator whose channel injects chimeras among refs.
func chimeraSim(t *testing.T, base Channel, refs []dna.Strand, p float64, cov CoverageModel) Simulator {
	t.Helper()
	ch, err := NewChimera(base, refs, p)
	if err != nil {
		t.Fatal(err)
	}
	return Simulator{Channel: ch, Coverage: cov}
}

// TestChimericSimulatorZeroP: at P=0 the chimera channel consumes no
// draws, so its dataset equals the base channel's byte for byte.
func TestChimericSimulatorZeroP(t *testing.T) {
	refs := RandomReferences(20, 60, 1)
	base := Simulator{Channel: NewNaive("n", EqualMix(0.02)), Coverage: NegBinCoverage{Mean: 4, Dispersion: 2.5}}
	plain := base.Simulate("p", refs, 7)
	chim := chimeraSim(t, base.Channel, refs, 0, base.Coverage).Simulate("p", refs, 7)
	if hashDataset(plain) != hashDataset(chim) {
		t.Fatal("P=0 changed the dataset")
	}
}

func TestChimericSimulatorInjectsChimeras(t *testing.T) {
	refs := RandomReferences(30, 110, 2)
	const p = 0.2
	ds := chimeraSim(t, NewNaive("clean", Rates{}), refs, p, FixedCoverage(10)).Simulate("c", refs, 9)
	total, far := 0, 0
	for i, c := range ds.Clusters {
		for _, read := range c.Reads {
			total++
			// With an error-free channel, non-chimeric reads equal the
			// reference exactly; chimeras sit far away but keep their own
			// reference's first base (the splice leaves at least one).
			if read != refs[i] {
				far++
				if read[0] != refs[i][0] {
					t.Fatalf("cluster %d: chimera lost its own prefix", i)
				}
			}
		}
	}
	rate := float64(far) / float64(total)
	if rate < p*0.7 || rate > p*1.3 {
		t.Errorf("chimera rate = %v, want ≈%v", rate, p)
	}
}

func TestChimeraLengthNearDesign(t *testing.T) {
	refs := RandomReferences(10, 110, 3)
	ds := chimeraSim(t, NewNaive("clean", Rates{}), refs, 1, FixedCoverage(6)).Simulate("c", refs, 11)
	for _, c := range ds.Clusters {
		for _, read := range c.Reads {
			if read.Len() < 100 || read.Len() > 120 {
				t.Fatalf("chimera length %d far from design 110", read.Len())
			}
			if err := read.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestChimerasRaiseApparentError(t *testing.T) {
	refs := RandomReferences(50, 110, 4)
	base := Simulator{Channel: NewNaive("n", EqualMix(0.02)), Coverage: FixedCoverage(5)}
	plain := base.Simulate("p", refs, 13)
	chim := chimeraSim(t, base.Channel, refs, 0.15, base.Coverage).Simulate("c", refs, 13)
	dPlain, dChim := 0, 0
	for i := range plain.Clusters {
		for k := range plain.Clusters[i].Reads {
			dPlain += align.Distance(string(refs[i]), string(plain.Clusters[i].Reads[k]))
			dChim += align.Distance(string(refs[i]), string(chim.Clusters[i].Reads[k]))
		}
	}
	if dChim <= dPlain*2 {
		t.Errorf("chimeras did not raise apparent error: %d vs %d", dChim, dPlain)
	}
}

func TestNewChimeraRejectsBadP(t *testing.T) {
	base := NewNaive("n", Rates{})
	refs := RandomReferences(2, 20, 5)
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := NewChimera(base, refs, p); err == nil {
			t.Errorf("P=%v accepted", p)
		}
	}
	if _, err := NewChimera(base, refs[:1], 0.1); err == nil {
		t.Error("a single reference has no partner but was accepted")
	}
	if _, err := NewChimera(base, refs[:1], 0); err != nil {
		t.Errorf("P=0 needs no partner: %v", err)
	}
}

// TestChimeraPartnerNeverSelf: the partner pick skips the read's own
// reference, including when it is the pool's last entry.
func TestChimeraPartnerNeverSelf(t *testing.T) {
	refs := []dna.Strand{"AAAAAAAAAA", "CCCCCCCCCC", "GGGGGGGGGG"}
	ch, err := NewChimera(NewNaive("clean", Rates{}), refs, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	for _, ref := range refs {
		seen := map[byte]bool{}
		for k := 0; k < 200; k++ {
			read := Transmit(ch, ref, r)
			tail := read[read.Len()-1]
			if tail == ref[0] {
				t.Fatalf("ref %s spliced with itself: %s", ref, read)
			}
			seen[tail] = true
		}
		if len(seen) != 2 {
			t.Errorf("ref %s: partners %v, want both others", ref, seen)
		}
	}
}
