package channel

import (
	"math"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestRatesTotalAndValidate(t *testing.T) {
	r := Rates{Sub: 0.01, Ins: 0.02, Del: 0.03}
	if math.Abs(r.Total()-0.06) > 1e-12 {
		t.Errorf("Total = %v", r.Total())
	}
	if err := r.Validate(); err != nil {
		t.Errorf("valid rates rejected: %v", err)
	}
	if err := (Rates{Sub: -0.1}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Rates{Sub: 0.5, Ins: 0.5, Del: 0.1}).Validate(); err == nil {
		t.Error("total >= 1 accepted")
	}
	s := r.Scale(2)
	if math.Abs(s.Total()-0.12) > 1e-12 {
		t.Errorf("Scale total = %v", s.Total())
	}
}

func TestMixes(t *testing.T) {
	e := EqualMix(0.09)
	if math.Abs(e.Sub-0.03) > 1e-12 || math.Abs(e.Total()-0.09) > 1e-12 {
		t.Errorf("EqualMix = %+v", e)
	}
	n := NanoporeMix(0.059)
	if math.Abs(n.Total()-0.059) > 1e-12 {
		t.Errorf("NanoporeMix total = %v", n.Total())
	}
	if n.Del <= n.Ins {
		t.Error("NanoporeMix should be deletion-heavy")
	}
}

func TestLongDeletionSampling(t *testing.T) {
	ld := PaperLongDeletion()
	r := rng.New(1)
	const n = 200000
	sum := 0
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		l := ld.sampleLen(r)
		if l < 2 || l > 6 {
			t.Fatalf("burst length %d out of [2,6]", l)
		}
		sum += l
		counts[l]++
	}
	mean := float64(sum) / n
	// Paper: mean length 2.17.
	if math.Abs(mean-ld.MeanLen()) > 0.02 {
		t.Errorf("sampled mean %v, analytic %v", mean, ld.MeanLen())
	}
	if math.Abs(ld.MeanLen()-2.17) > 0.03 {
		t.Errorf("paper long-deletion mean = %v, want ~2.17", ld.MeanLen())
	}
	frac2 := float64(counts[2]) / n
	if math.Abs(frac2-0.84) > 0.02 {
		t.Errorf("fraction of length-2 bursts = %v, want ~0.84", frac2)
	}
}

func TestLongDeletionDefaults(t *testing.T) {
	var ld LongDeletion
	if ld.sampleLen(rng.New(1)) != 2 {
		t.Error("zero-value burst length != 2")
	}
	if ld.MeanLen() != 2 {
		t.Error("zero-value mean != 2")
	}
	ld = LongDeletion{MinLen: 3, LengthWeights: []float64{0, 0}}
	if ld.sampleLen(rng.New(1)) != 3 {
		t.Error("all-zero weights should fall back to MinLen")
	}
}

func TestZeroModelIsIdentity(t *testing.T) {
	m := &Model{Label: "id"}
	r := rng.New(2)
	ref := dna.Strand("ACGTACGTACGT")
	for i := 0; i < 100; i++ {
		if got := Transmit(m, ref, r); got != ref {
			t.Fatalf("zero model perturbed strand: %q", got)
		}
	}
	if Transmit(m, "", r) != "" {
		t.Error("empty strand not preserved")
	}
}

func TestNaiveAggregateRate(t *testing.T) {
	m := NewNaive("naive", EqualMix(0.06))
	if math.Abs(m.AggregateRate()-0.06) > 1e-12 {
		t.Errorf("AggregateRate = %v", m.AggregateRate())
	}
	refs := RandomReferences(200, 110, 7)
	r := rng.New(3)
	totalDist, totalBases := 0, 0
	for _, ref := range refs {
		for k := 0; k < 5; k++ {
			read := Transmit(m, ref, r)
			totalDist += align.Distance(string(ref), string(read))
			totalBases += ref.Len()
		}
	}
	rate := float64(totalDist) / float64(totalBases)
	if math.Abs(rate-0.06) > 0.005 {
		t.Errorf("empirical error rate %v, want ~0.06", rate)
	}
}

func TestSubOnlyPreservesLength(t *testing.T) {
	m := NewNaive("sub", Rates{Sub: 0.2})
	r := rng.New(4)
	ref := dna.Strand(RandomReferences(1, 200, 1)[0])
	for i := 0; i < 50; i++ {
		read := Transmit(m, ref, r)
		if read.Len() != ref.Len() {
			t.Fatalf("sub-only changed length: %d != %d", read.Len(), ref.Len())
		}
	}
}

func TestDelOnlyShortens(t *testing.T) {
	m := NewNaive("del", Rates{Del: 0.3})
	r := rng.New(5)
	ref := dna.Strand(RandomReferences(1, 200, 2)[0])
	shorter := 0
	for i := 0; i < 50; i++ {
		read := Transmit(m, ref, r)
		if read.Len() > ref.Len() {
			t.Fatalf("del-only lengthened strand")
		}
		if read.Len() < ref.Len() {
			shorter++
		}
	}
	if shorter < 45 {
		t.Errorf("only %d/50 reads shortened at 30%% deletion", shorter)
	}
}

func TestInsOnlyLengthens(t *testing.T) {
	m := NewNaive("ins", Rates{Ins: 0.3})
	r := rng.New(6)
	ref := dna.Strand(RandomReferences(1, 200, 3)[0])
	longer := 0
	for i := 0; i < 50; i++ {
		read := Transmit(m, ref, r)
		if read.Len() < ref.Len() {
			t.Fatalf("ins-only shortened strand")
		}
		if read.Len() > ref.Len() {
			longer++
		}
	}
	if longer < 45 {
		t.Errorf("only %d/50 reads lengthened at 30%% insertion", longer)
	}
}

func TestSubstitutionNeverProducesSameBaseWithMatrix(t *testing.T) {
	// With a confusion matrix, a substitution must change the base.
	m := NewNaive("sub", Rates{Sub: 0.5})
	m.SubMatrix = TransitionBiasedSubMatrix(0.8)
	r := rng.New(7)
	ref := dna.Repeat(dna.A, 2000)
	read := Transmit(m, ref, r)
	if read.Len() != 2000 {
		t.Fatalf("length changed")
	}
	subs := 0
	toG := 0
	for i := 0; i < read.Len(); i++ {
		if read.At(i) != dna.A {
			subs++
			if read.At(i) == dna.G {
				toG++
			}
		}
	}
	if subs < 800 {
		t.Fatalf("too few substitutions: %d", subs)
	}
	frac := float64(toG) / float64(subs)
	if math.Abs(frac-0.8) > 0.06 {
		t.Errorf("A→G fraction = %v, want ~0.8", frac)
	}
}

func TestUniformSubCanProduceAnyOtherBase(t *testing.T) {
	m := NewNaive("sub", Rates{Sub: 0.5})
	r := rng.New(8)
	ref := dna.Repeat(dna.C, 3000)
	read := Transmit(m, ref, r)
	seen := map[dna.Base]int{}
	for i := 0; i < read.Len(); i++ {
		if read.At(i) != dna.C {
			seen[read.At(i)]++
		}
	}
	if len(seen) != 3 {
		t.Errorf("uniform substitution produced %d distinct bases, want 3: %v", len(seen), seen)
	}
	if seen[dna.C] != 0 {
		t.Error("uniform substitution reproduced original base")
	}
}

func TestInsDistRespected(t *testing.T) {
	m := NewNaive("ins", Rates{Ins: 0.3})
	m.InsDist = [dna.NumBases]float64{0, 0, 0, 1} // only T inserted
	r := rng.New(9)
	ref := dna.Repeat(dna.A, 3000)
	read := Transmit(m, ref, r)
	for i := 0; i < read.Len(); i++ {
		if b := read.At(i); b != dna.A && b != dna.T {
			t.Fatalf("unexpected inserted base %v", b)
		}
	}
	if read.Len() <= ref.Len() {
		t.Error("no insertions happened")
	}
}

func TestLongDeletionBursts(t *testing.T) {
	m := &Model{Label: "ld", LongDel: LongDeletion{Prob: 0.02, MinLen: 2, LengthWeights: []float64{1}}}
	r := rng.New(10)
	ref := dna.Strand(RandomReferences(1, 110, 4)[0])
	const n = 2000
	totalDel := 0
	for i := 0; i < n; i++ {
		read := Transmit(m, ref, r)
		totalDel += ref.Len() - read.Len()
	}
	// Expected deletions per strand ≈ 110 * 0.02 * 2.
	mean := float64(totalDel) / n
	want := 110 * 0.02 * 2
	if math.Abs(mean-want)/want > 0.15 {
		t.Errorf("mean deleted bases %v, want ~%v", mean, want)
	}
}

func TestSpatialSkewConcentratesErrors(t *testing.T) {
	m := NewNaive("skew", Rates{Sub: 0.06}).WithSpatial(dist.NanoporeSkew())
	r := rng.New(11)
	ref := dna.Strand(RandomReferences(1, 110, 5)[0])
	counts := make([]int, 110)
	const n = 20000
	for i := 0; i < n; i++ {
		read := Transmit(m, ref, r)
		for p := 0; p < 110; p++ {
			if read[p] != ref[p] {
				counts[p]++
			}
		}
	}
	interior := 0.0
	for p := 10; p < 100; p++ {
		interior += float64(counts[p])
	}
	interior /= 90
	if float64(counts[0]) < 3*interior {
		t.Errorf("position 0 errors (%d) not boosted vs interior (%v)", counts[0], interior)
	}
	if float64(counts[109]) < 6*interior {
		t.Errorf("final position errors (%d) not boosted ~12x vs interior (%v)", counts[109], interior)
	}
	ratio := float64(counts[109]) / float64(counts[0])
	if math.Abs(ratio-2) > 0.4 {
		t.Errorf("end/start error ratio = %v, want ~2", ratio)
	}
}

func TestSpatialSkewPreservesAggregate(t *testing.T) {
	base := NewNaive("base", EqualMix(0.06))
	skewed := base.WithSpatial(dist.NanoporeSkew())
	r := rng.New(12)
	refs := RandomReferences(300, 110, 6)
	dist0, dist1 := 0, 0
	for _, ref := range refs {
		dist0 += align.Distance(string(ref), string(Transmit(base, ref, r)))
		dist1 += align.Distance(string(ref), string(Transmit(skewed, ref, r)))
	}
	ratio := float64(dist1) / float64(dist0)
	if math.Abs(ratio-1) > 0.12 {
		t.Errorf("skew changed aggregate error mass: ratio %v", ratio)
	}
}

func TestSecondOrderSpecificError(t *testing.T) {
	// A model whose only error is del(G) with strong end-of-strand skew.
	so := SecondOrderError{
		Kind: align.Del, From: dna.G, Rate: 0.3,
		Spatial: []float64{0, 0, 0, 0, 0, 0, 0, 0, 1, 1},
	}
	m := &Model{Label: "so", SecondOrder: []SecondOrderError{so}}
	r := rng.New(13)
	ref := dna.Strand("AAAAAGGGGG") // G only in last half
	const n = 5000
	deleted := 0
	for i := 0; i < n; i++ {
		read := Transmit(m, ref, r)
		deleted += ref.Len() - read.Len()
		for p := 0; p < read.Len(); p++ {
			if read[p] == 'G' {
				continue
			}
		}
	}
	if deleted == 0 {
		t.Fatal("no second-order deletions occurred")
	}
	// All deletions must be G (first half is A with no applicable error).
	m2 := &Model{Label: "so2", SecondOrder: []SecondOrderError{so}}
	readA := Transmit(m2, dna.Repeat(dna.A, 100), r)
	if readA.Len() != 100 {
		t.Error("del(G) fired on an all-A strand")
	}
}

func TestSecondOrderString(t *testing.T) {
	cases := []struct {
		e    SecondOrderError
		want string
	}{
		{SecondOrderError{Kind: align.Sub, From: dna.A, To: dna.G}, "sub(A→G)"},
		{SecondOrderError{Kind: align.Del, From: dna.G}, "del(G)"},
		{SecondOrderError{Kind: align.Ins, To: dna.T}, "ins(T)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestWithSecondOrderPreservesAggregate(t *testing.T) {
	base := NewNaive("base", EqualMix(0.06))
	base.LongDel = PaperLongDeletion()
	before := base.AggregateRate()
	so := []SecondOrderError{
		{Kind: align.Del, From: dna.G, Rate: 0.04},
		{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 0.03},
		{Kind: align.Ins, To: dna.T, Rate: 0.005},
	}
	m := base.WithSecondOrder(so)
	after := m.AggregateRate()
	if math.Abs(after-before) > 1e-9 {
		t.Errorf("aggregate changed: %v -> %v", before, after)
	}
	// Generic mass must have shrunk.
	if m.PerBase[0].Total() >= base.PerBase[0].Total() {
		t.Error("generic rates did not shrink")
	}
}

func TestWithSecondOrderEmpiricalAggregate(t *testing.T) {
	base := NewNaive("base", EqualMix(0.06))
	so := []SecondOrderError{
		{Kind: align.Del, From: dna.G, Rate: 0.04, Spatial: []float64{1, 1, 1, 1, 4}},
		{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 0.04},
	}
	m := base.WithSecondOrder(so)
	refs := RandomReferences(400, 110, 8)
	r := rng.New(14)
	totalDist, totalBases := 0, 0
	for _, ref := range refs {
		read := Transmit(m, ref, r)
		totalDist += align.Distance(string(ref), string(read))
		totalBases += ref.Len()
	}
	rate := float64(totalDist) / float64(totalBases)
	if math.Abs(rate-0.06) > 0.008 {
		t.Errorf("empirical aggregate with second-order errors = %v, want ~0.06", rate)
	}
}

func TestModelTransmitDeterministic(t *testing.T) {
	m := NewNaive("d", EqualMix(0.1)).WithSpatial(dist.TriangularA{})
	ref := dna.Strand(RandomReferences(1, 110, 9)[0])
	a := Transmit(m, ref, rng.New(42))
	b := Transmit(m, ref, rng.New(42))
	if a != b {
		t.Error("Transmit not deterministic for equal RNG state")
	}
}

func TestWithLabel(t *testing.T) {
	m := NewNaive("x", EqualMix(0.01))
	if m.WithLabel("y").Name() != "y" {
		t.Error("WithLabel failed")
	}
	if m.Name() != "x" {
		t.Error("WithLabel mutated receiver")
	}
	var anon Model
	if anon.Name() != "model" {
		t.Error("default name wrong")
	}
}
