package recon

import (
	"strings"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/metrics"
	"dnastore/internal/rng"
)

func allAlgorithms() []Reconstructor {
	return []Reconstructor{
		Majority{}, NewBMA(), NewOneWayBMA(), NewIterative(), NewTwoWayIterative(),
		NewWeightedIterative(), NewDividerBMA(), NewMSA(),
	}
}

func TestEmptyClusterIsErasure(t *testing.T) {
	for _, alg := range allAlgorithms() {
		if got := alg.Reconstruct(nil, 110); got != "" {
			t.Errorf("%s: empty cluster gave %q", alg.Name(), got)
		}
		if got := alg.Reconstruct([]dna.Strand{"ACGT"}, 0); got != "" {
			t.Errorf("%s: zero length gave %q", alg.Name(), got)
		}
	}
}

func TestCleanClusterReconstructsExactly(t *testing.T) {
	ref := dna.Strand("ACGTTGCAACGTACGTACGAGTGA")
	cluster := []dna.Strand{ref, ref, ref}
	for _, alg := range allAlgorithms() {
		if got := alg.Reconstruct(cluster, ref.Len()); got != ref {
			t.Errorf("%s: clean cluster gave %q, want %q", alg.Name(), got, ref)
		}
	}
}

func TestSingleCleanCopy(t *testing.T) {
	ref := dna.Strand("GATTACAGATTACAGATTACA")
	for _, alg := range allAlgorithms() {
		if got := alg.Reconstruct([]dna.Strand{ref}, ref.Len()); got != ref {
			t.Errorf("%s: single clean copy gave %q", alg.Name(), got)
		}
	}
}

func TestOutputLengthNearDesignLength(t *testing.T) {
	// Estimates may run slightly long (refinement insertions) or short
	// (exhausted copies), but must stay near the design length and valid.
	r := rng.New(1)
	refs := channel.RandomReferences(30, 110, 1)
	m := channel.NewNaive("n", channel.EqualMix(0.10))
	for _, ref := range refs {
		cluster := make([]dna.Strand, 5)
		for k := range cluster {
			cluster[k] = channel.Transmit(m, ref, r)
		}
		for _, alg := range allAlgorithms() {
			got := alg.Reconstruct(cluster, 110)
			if got.Len() < 90 || got.Len() > 120 {
				t.Fatalf("%s: output length %d, want ≈110", alg.Name(), got.Len())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: invalid output: %v", alg.Name(), err)
			}
		}
	}
}

func TestMajorityOutvotesSubstitution(t *testing.T) {
	ref := dna.Strand("ACGTACGT")
	bad := dna.Strand("ACGAACGT") // sub at position 3
	cluster := []dna.Strand{ref, ref, bad}
	for _, alg := range allAlgorithms() {
		if got := alg.Reconstruct(cluster, ref.Len()); got != ref {
			t.Errorf("%s: failed to outvote substitution: %q", alg.Name(), got)
		}
	}
}

func TestIndelAwareAlgorithmsFixSingleDeletion(t *testing.T) {
	ref := dna.Strand("ACGTTGCAACGGTACCGATG")
	del := dna.Strand("ACGTGCAACGGTACCGATG") // T at pos 4 deleted
	cluster := []dna.Strand{ref, ref, del}
	for _, alg := range []Reconstructor{NewBMA(), NewOneWayBMA(), NewIterative(), NewTwoWayIterative(), NewDividerBMA()} {
		if got := alg.Reconstruct(cluster, ref.Len()); got != ref {
			t.Errorf("%s: failed on single deletion: %q", alg.Name(), got)
		}
	}
}

func TestIndelAwareAlgorithmsFixSingleInsertion(t *testing.T) {
	ref := dna.Strand("ACGTTGCAACGGTACCGATG")
	ins := dna.Strand("ACGTTTGCAACGGTACCGATG") // extra T at pos 4
	cluster := []dna.Strand{ref, ins, ref}
	for _, alg := range []Reconstructor{NewBMA(), NewOneWayBMA(), NewIterative(), NewTwoWayIterative(), NewDividerBMA()} {
		if got := alg.Reconstruct(cluster, ref.Len()); got != ref {
			t.Errorf("%s: failed on single insertion: %q", alg.Name(), got)
		}
	}
}

func TestAllCopiesTruncated(t *testing.T) {
	// Copies all lose their tail; one-way algorithms recover exactly the
	// surviving prefix and report the missing tail as residual deletions.
	ref := dna.Strand("ACGTACGTACGTACGTACGT")
	short := ref[:12]
	cluster := []dna.Strand{short, short, short}
	for _, alg := range []Reconstructor{Majority{}, NewOneWayBMA(), NewIterative(), NewWeightedIterative()} {
		got := alg.Reconstruct(cluster, ref.Len())
		if got != short {
			t.Errorf("%s: got %q, want the surviving prefix %q", alg.Name(), got, short)
		}
	}
	// Two-way variants just need to produce something valid containing the
	// surviving prefix information at the front.
	for _, alg := range []Reconstructor{NewBMA(), NewTwoWayIterative()} {
		got := alg.Reconstruct(cluster, ref.Len())
		if err := got.Validate(); err != nil {
			t.Errorf("%s: invalid output: %v", alg.Name(), err)
		}
		if got.Len() < 10 || got[:10] != short[:10] {
			t.Errorf("%s: prefix corrupted: %q", alg.Name(), got)
		}
	}
}

func TestReconstructDataset(t *testing.T) {
	refs := channel.RandomReferences(40, 60, 2)
	sim := channel.Simulator{Channel: channel.NewNaive("n", channel.EqualMix(0.03)), Coverage: channel.FixedCoverage(6)}
	ds := sim.Simulate("t", refs, 3)
	// Insert an erasure.
	ds.Clusters[7].Reads = nil
	out := ReconstructDataset(NewBMA(), ds)
	if len(out) != 40 {
		t.Fatalf("got %d outputs", len(out))
	}
	if out[7] != "" {
		t.Error("erasure cluster not empty")
	}
	acc := metrics.ComputeAccuracy(ds.References(), out)
	if acc.PerChar < 95 {
		t.Errorf("BMA per-char accuracy %v too low at 3%% error, coverage 6", acc.PerChar)
	}
}

func TestAccuracyImprovesWithCoverage(t *testing.T) {
	refs := channel.RandomReferences(150, 110, 4)
	m := channel.NewNaive("n", channel.EqualMix(0.08))
	accAt := func(cov int) float64 {
		sim := channel.Simulator{Channel: m, Coverage: channel.FixedCoverage(cov)}
		ds := sim.Simulate("t", refs, 5)
		out := ReconstructDataset(NewIterative(), ds)
		return metrics.ComputeAccuracy(ds.References(), out).PerChar
	}
	low, high := accAt(2), accAt(8)
	if high <= low {
		t.Errorf("Iterative per-char accuracy did not improve with coverage: %v -> %v", low, high)
	}
}

func TestBMATwoWayBeatsOneWayOnUniformNoise(t *testing.T) {
	refs := channel.RandomReferences(200, 110, 6)
	m := channel.NewNaive("n", channel.EqualMix(0.10))
	sim := channel.Simulator{Channel: m, Coverage: channel.FixedCoverage(6)}
	ds := sim.Simulate("t", refs, 7)
	one := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewOneWayBMA(), ds))
	two := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewBMA(), ds))
	if two.PerChar <= one.PerChar {
		t.Errorf("two-way BMA (%.2f%%) should beat one-way (%.2f%%) per-char", two.PerChar, one.PerChar)
	}
}

func TestIterativeErrorsSkewTowardEnd(t *testing.T) {
	// §3.2/§3.4.1: the Iterative algorithm propagates errors linearly to
	// the strand end; its post-reconstruction Hamming profile should carry
	// much more error mass in the last third than the first third.
	refs := channel.RandomReferences(400, 110, 8)
	m := channel.NewNaive("n", channel.EqualMix(0.12))
	sim := channel.Simulator{Channel: m, Coverage: channel.FixedCoverage(5)}
	ds := sim.Simulate("t", refs, 9)
	out := ReconstructDataset(NewIterative(), ds)
	prof := metrics.HammingProfile(ds.References(), out, 110)
	first, last := 0, 0
	for p := 0; p < 36; p++ {
		first += prof.Counts[p]
	}
	for p := 74; p < 110; p++ {
		last += prof.Counts[p]
	}
	if last < 2*first {
		t.Errorf("Iterative errors not end-skewed: first third %d, last third %d", first, last)
	}
}

func TestBMAErrorsSkewTowardMiddle(t *testing.T) {
	// Fig 3.4c: two-way BMA propagates errors toward the splice point in
	// the middle of the strand.
	refs := channel.RandomReferences(400, 110, 10)
	m := channel.NewNaive("n", channel.EqualMix(0.15))
	sim := channel.Simulator{Channel: m, Coverage: channel.FixedCoverage(5)}
	ds := sim.Simulate("t", refs, 11)
	out := ReconstructDataset(NewBMA(), ds)
	prof := metrics.HammingProfile(ds.References(), out, 110)
	edges, middle := 0, 0
	for p := 0; p < 20; p++ {
		edges += prof.Counts[p]
	}
	for p := 90; p < 110; p++ {
		edges += prof.Counts[p]
	}
	for p := 35; p < 75; p++ {
		middle += prof.Counts[p]
	}
	if middle <= edges {
		t.Errorf("BMA errors not middle-skewed: edges %d, middle %d", edges, middle)
	}
}

func TestIterativeResidualErrorsAreDeletionDominant(t *testing.T) {
	// §3.4.1: "the most common errors after Iterative reconstruction were
	// deletion errors (90% of total)".
	refs := channel.RandomReferences(300, 110, 12)
	m := channel.NewNaive("n", channel.NanoporeMix(0.12))
	sim := channel.Simulator{Channel: m, Coverage: channel.FixedCoverage(5)}
	ds := sim.Simulate("t", refs, 13)
	out := ReconstructDataset(NewIterative(), ds)
	census := metrics.CensusErrors(ds.References(), out)
	if census.Total() == 0 {
		t.Skip("no residual errors at this configuration")
	}
	if f := census.Fraction(align.Del); f < 0.4 {
		t.Errorf("deletion share of residual errors = %.2f, want dominant (paper: 0.9)", f)
	}
}

func TestTwoWayIterativeBeatsOneWayOnEndSkewedData(t *testing.T) {
	// §4.3: two-way execution should improve Iterative on data whose
	// errors skew toward the strand end — the regime its one-way sweep
	// handles worst.
	refs := channel.RandomReferences(400, 110, 14)
	m := channel.NewNaive("n", channel.NanoporeMix(0.059))
	skewed := m.WithSpatial(dist.TerminalSkew{StartPositions: 2, EndPositions: 1, StartBoost: 1, EndBoost: 6})
	sim := channel.Simulator{Channel: skewed, Coverage: channel.FixedCoverage(5)}
	ds := sim.Simulate("t", refs, 15)
	one := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewIterative(), ds))
	two := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewTwoWayIterative(), ds))
	if two.PerChar <= one.PerChar {
		t.Errorf("two-way Iterative (%.2f%%) should beat one-way (%.2f%%) per-char on end-skewed data", two.PerChar, one.PerChar)
	}
	if two.PerStrand < one.PerStrand-1 {
		t.Errorf("two-way Iterative per-strand (%.2f%%) regressed vs one-way (%.2f%%)", two.PerStrand, one.PerStrand)
	}
}

func TestDividerBMADegradesWithoutExactLengthCopies(t *testing.T) {
	// DivBMA anchors on length-L copies; starve it of them.
	refs := channel.RandomReferences(150, 110, 16)
	delOnly := channel.NewNaive("d", channel.Rates{Del: 0.05}) // nearly every copy shortened
	sim := channel.Simulator{Channel: delOnly, Coverage: channel.FixedCoverage(5)}
	ds := sim.Simulate("t", refs, 17)
	div := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewDividerBMA(), ds))
	bma := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewBMA(), ds))
	if div.PerStrand >= bma.PerStrand {
		t.Errorf("DivBMA (%.2f%%) should trail BMA (%.2f%%) in the deletion-heavy regime", div.PerStrand, bma.PerStrand)
	}
}

func TestByName(t *testing.T) {
	names := []string{"majority", "bma", "bma-oneway", "iterative", "iterative-twoway", "divbma"}
	for _, n := range names {
		alg, ok := ByName(n)
		if !ok {
			t.Errorf("ByName(%q) failed", n)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("%q has empty display name", n)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name accepted")
	}
	if len(All()) < 5 {
		t.Error("All() missing algorithms")
	}
}

func TestSpliceHalves(t *testing.T) {
	f := dna.Strand("AAAAAAAAAA")
	b := dna.Strand("CCCCCCCCCC")
	got := spliceHalves(f, b, 10)
	if got != "AAAAACCCCC" {
		t.Errorf("splice = %q", got)
	}
	// Overlong inputs are trimmed (forward keeps its head, backward its tail).
	got = spliceHalves("AAAAAAAAAAGG", "GGCCCCCCCCCC", 10)
	if got != "AAAAACCCCC" {
		t.Errorf("splice overlong = %q", got)
	}
	// Short inputs are padded.
	got = spliceHalves("AA", "CC", 6)
	if got.Len() != 6 {
		t.Errorf("splice short length = %d", got.Len())
	}
}

func TestVoteCountsWinner(t *testing.T) {
	var v voteCounts
	if _, ok := v.winner(); ok {
		t.Error("empty votes should have no winner")
	}
	v.add(dna.T)
	v.add(dna.T)
	v.add(dna.C)
	b, ok := v.winner()
	if !ok || b != dna.T {
		t.Errorf("winner = %v, %v", b, ok)
	}
	// Tie breaks toward alphabetically first.
	var tie voteCounts
	tie.add(dna.G)
	tie.add(dna.C)
	b, _ = tie.winner()
	if b != dna.C {
		t.Errorf("tie winner = %v, want C", b)
	}
}

func TestNamesAreDescriptive(t *testing.T) {
	for _, alg := range allAlgorithms() {
		if alg.Name() == "" {
			t.Error("empty algorithm name")
		}
	}
	if !strings.Contains(NewBMA().Name(), "w=3") {
		t.Errorf("BMA name should carry window: %q", NewBMA().Name())
	}
}

func BenchmarkBMACoverage6(b *testing.B) {
	refs := channel.RandomReferences(100, 110, 20)
	sim := channel.Simulator{Channel: channel.NewNaive("n", channel.EqualMix(0.06)), Coverage: channel.FixedCoverage(6)}
	ds := sim.Simulate("b", refs, 21)
	alg := NewBMA()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ds.Clusters[i%len(ds.Clusters)]
		alg.Reconstruct(c.Reads, c.Ref.Len())
	}
}

func BenchmarkIterativeCoverage6(b *testing.B) {
	refs := channel.RandomReferences(100, 110, 22)
	sim := channel.Simulator{Channel: channel.NewNaive("n", channel.EqualMix(0.06)), Coverage: channel.FixedCoverage(6)}
	ds := sim.Simulate("b", refs, 23)
	alg := NewIterative()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := ds.Clusters[i%len(ds.Clusters)]
		alg.Reconstruct(c.Reads, c.Ref.Len())
	}
}
