package channel

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestDNASimulatorBasics(t *testing.T) {
	s := NewDNASimulator("", DefaultNanoporeDict())
	if s.Name() != "DNASimulator" {
		t.Errorf("Name = %q", s.Name())
	}
	agg := s.AggregateRate()
	if math.Abs(agg-0.059) > 0.001 {
		t.Errorf("Nanopore dict aggregate = %v, want ~0.059", agg)
	}
	r := rng.New(1)
	ref := dna.Strand(RandomReferences(1, 110, 1)[0])
	read := Transmit(s, ref, r)
	if err := read.Validate(); err != nil {
		t.Fatalf("invalid read: %v", err)
	}
}

func TestDNASimulatorErrorFree(t *testing.T) {
	s := NewDNASimulator("clean", BaseErrorRates{})
	r := rng.New(2)
	ref := dna.Strand("ACGTACGT")
	if got := Transmit(s, ref, r); got != ref {
		t.Errorf("error-free DNASimulator perturbed strand")
	}
}

func TestDNASimulatorLongDeletionBurst(t *testing.T) {
	s := NewDNASimulator("ld", BaseErrorRates{LongDel: 1})
	s.LongDelLen = 3
	r := rng.New(3)
	ref := dna.Strand("ACGTACGTACGT") // 12 bases; every position starts a burst
	read := Transmit(s, ref, r)
	if read.Len() != 0 {
		t.Errorf("always-long-del left %d bases", read.Len())
	}
	// Default burst length when unset must be >= 2.
	s2 := &DNASimulator{Errors: [dna.NumBases]BaseErrorRates{{LongDel: 1}, {LongDel: 1}, {LongDel: 1}, {LongDel: 1}}}
	read2 := Transmit(s2, "AAAA", r)
	if read2.Len() != 0 {
		t.Errorf("zero-config burst left %q", read2)
	}
}

func TestDNASimulatorSubstitutionCanKeepBase(t *testing.T) {
	// Algorithm 1 picks the replacement uniformly from all four bases, so
	// ~25% of substitutions silently keep the original base.
	s := NewDNASimulator("sub", BaseErrorRates{Sub: 1})
	r := rng.New(4)
	ref := dna.Repeat(dna.A, 4000)
	read := Transmit(s, ref, r)
	kept := 0
	for i := 0; i < read.Len(); i++ {
		if read.At(i) == dna.A {
			kept++
		}
	}
	frac := float64(kept) / float64(read.Len())
	if math.Abs(frac-0.25) > 0.03 {
		t.Errorf("kept-base fraction = %v, want ~0.25", frac)
	}
}

func TestRandomReferences(t *testing.T) {
	refs := RandomReferences(50, 110, 5)
	if len(refs) != 50 {
		t.Fatalf("got %d refs", len(refs))
	}
	for _, ref := range refs {
		if ref.Len() != 110 {
			t.Fatalf("ref length %d", ref.Len())
		}
		if err := ref.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Deterministic per seed.
	again := RandomReferences(50, 110, 5)
	for i := range refs {
		if refs[i] != again[i] {
			t.Fatal("RandomReferences not deterministic")
		}
	}
	if RandomReferences(2, 10, 6)[0] == refs[0][:10] {
		t.Log("different seed produced same prefix (unlikely but not fatal)")
	}
}

func TestSimulatorFixedCoverage(t *testing.T) {
	sim := Simulator{Channel: NewNaive("n", EqualMix(0.05)), Coverage: FixedCoverage(7)}
	refs := RandomReferences(30, 60, 7)
	ds := sim.Simulate("test", refs, 99)
	if ds.NumClusters() != 30 {
		t.Fatalf("clusters = %d", ds.NumClusters())
	}
	for i, c := range ds.Clusters {
		if c.Coverage() != 7 {
			t.Errorf("cluster %d coverage = %d", i, c.Coverage())
		}
		if c.Ref != refs[i] {
			t.Errorf("cluster %d ref mismatch", i)
		}
		for _, read := range c.Reads {
			if err := read.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSimulatorDeterministicAcrossRuns(t *testing.T) {
	sim := Simulator{Channel: NewNaive("n", EqualMix(0.08)), Coverage: NegBinCoverage{Mean: 10, Dispersion: 3}}
	refs := RandomReferences(40, 80, 8)
	a := sim.Simulate("a", refs, 123)
	b := sim.Simulate("b", refs, 123)
	for i := range a.Clusters {
		if len(a.Clusters[i].Reads) != len(b.Clusters[i].Reads) {
			t.Fatalf("cluster %d coverage differs", i)
		}
		for j := range a.Clusters[i].Reads {
			if a.Clusters[i].Reads[j] != b.Clusters[i].Reads[j] {
				t.Fatalf("cluster %d read %d differs", i, j)
			}
		}
	}
	c := sim.Simulate("c", refs, 124)
	same := true
	for i := range a.Clusters {
		if len(a.Clusters[i].Reads) != len(c.Clusters[i].Reads) {
			same = false
			break
		}
		for j := range a.Clusters[i].Reads {
			if a.Clusters[i].Reads[j] != c.Clusters[i].Reads[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestSimulatorCustomCoverage(t *testing.T) {
	cov := CustomCoverage{3, 0, 5}
	sim := Simulator{Channel: NewNaive("n", EqualMix(0.02)), Coverage: cov}
	refs := RandomReferences(6, 40, 9)
	ds := sim.Simulate("custom", refs, 5)
	want := []int{3, 0, 5, 3, 0, 5} // wraps
	for i, c := range ds.Clusters {
		if c.Coverage() != want[i] {
			t.Errorf("cluster %d coverage = %d, want %d", i, c.Coverage(), want[i])
		}
	}
	if ds.Erasures() != 2 {
		t.Errorf("erasures = %d, want 2", ds.Erasures())
	}
}

func TestSimulatorPanicsWithoutParts(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	refs := RandomReferences(1, 10, 1)
	mustPanic("no channel", func() {
		Simulator{Coverage: FixedCoverage(1)}.Simulate("x", refs, 1)
	})
	mustPanic("no coverage", func() {
		Simulator{Channel: NewNaive("n", EqualMix(0.01))}.Simulate("x", refs, 1)
	})
}

// panicOnRefChannel panics whenever asked to transmit the trigger strand —
// a stand-in for a buggy channel implementation.
type panicOnRefChannel struct{ trigger dna.Strand }

func (p panicOnRefChannel) AppendTransmit(dst []byte, ref []dna.Base, _ *rng.RNG, _ *Scratch) []byte {
	if sameStrand(p.trigger, ref) {
		panic("injected channel fault")
	}
	return dna.AppendLetters(dst, ref)
}

func (p panicOnRefChannel) Name() string { return "panic-on-ref" }

func TestSimulateCtxPanicIsolation(t *testing.T) {
	refs := RandomReferences(8, 30, 3)
	sim := Simulator{Channel: panicOnRefChannel{trigger: refs[3]}, Coverage: FixedCoverage(2)}
	ds, err := sim.SimulateCtx(context.Background(), "p", refs, 1)
	if err == nil {
		t.Fatal("panicking channel produced no error")
	}
	var se *SimulationError
	if !errors.As(err, &se) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if se.Canceled != nil {
		t.Errorf("Canceled = %v on an uncanceled run", se.Canceled)
	}
	if len(se.Clusters) != 1 || se.Clusters[0].Index != 3 {
		t.Fatalf("cluster errors = %+v, want exactly cluster 3", se.Clusters)
	}
	if se.Completed != 7 || se.Total != 8 {
		t.Errorf("completed %d/%d, want 7/8", se.Completed, se.Total)
	}
	if ds == nil {
		t.Fatal("no partial dataset")
	}
	for i, c := range ds.Clusters {
		if c.Ref != refs[i] {
			t.Errorf("cluster %d lost its reference", i)
		}
		want := 2
		if i == 3 {
			want = 0 // the failed cluster degrades to zero reads
		}
		if len(c.Reads) != want {
			t.Errorf("cluster %d has %d reads, want %d", i, len(c.Reads), want)
		}
	}
	// The legacy wrapper keeps the fail-fast contract: same fault panics.
	defer func() {
		if recover() == nil {
			t.Error("Simulate did not propagate the cluster failure as a panic")
		}
	}()
	sim.Simulate("p", refs, 1)
}

// cancelingChannel cancels the run's own context on its first transmission,
// simulating an interrupt arriving mid-run.
type cancelingChannel struct {
	cancel context.CancelFunc
	calls  *atomic.Int64
}

func (c cancelingChannel) AppendTransmit(dst []byte, ref []dna.Base, _ *rng.RNG, _ *Scratch) []byte {
	if c.calls.Add(1) == 1 {
		c.cancel()
	}
	return dna.AppendLetters(dst, ref)
}

func (c cancelingChannel) Name() string { return "canceling" }

func TestSimulateCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	refs := RandomReferences(512, 20, 4)
	var calls atomic.Int64
	sim := Simulator{Channel: cancelingChannel{cancel: cancel, calls: &calls}, Coverage: FixedCoverage(1)}
	ds, err := sim.SimulateCtx(ctx, "c", refs, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled via SimulationError", err)
	}
	var se *SimulationError
	if !errors.As(err, &se) {
		t.Fatalf("error type %T", err)
	}
	if se.Completed >= len(refs) {
		t.Errorf("cancellation did not stop early: completed %d/%d", se.Completed, se.Total)
	}
	populated := 0
	for _, c := range ds.Clusters {
		if len(c.Reads) > 0 {
			populated++
		}
	}
	if populated >= len(refs) {
		t.Errorf("partial dataset has %d populated clusters of %d", populated, len(refs))
	}
	if populated != se.Completed {
		t.Errorf("populated clusters %d != reported completed %d", populated, se.Completed)
	}
}

func TestSimulateCtxConfigErrors(t *testing.T) {
	refs := RandomReferences(1, 10, 1)
	if _, err := (Simulator{Coverage: FixedCoverage(1)}).SimulateCtx(context.Background(), "x", refs, 1); err == nil {
		t.Error("missing Channel accepted")
	}
	if _, err := (Simulator{Channel: NewNaive("n", EqualMix(0.01))}).SimulateCtx(context.Background(), "x", refs, 1); err == nil {
		t.Error("missing CoverageModel accepted")
	}
}

func TestSimulateCtxMatchesSimulate(t *testing.T) {
	sim := Simulator{Channel: NewNaive("n", EqualMix(0.06)), Coverage: NegBinCoverage{Mean: 8, Dispersion: 3}}
	refs := RandomReferences(25, 60, 6)
	a := sim.Simulate("a", refs, 77)
	b, err := sim.SimulateCtx(context.Background(), "b", refs, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Clusters {
		if len(a.Clusters[i].Reads) != len(b.Clusters[i].Reads) {
			t.Fatalf("cluster %d coverage differs", i)
		}
		for j := range a.Clusters[i].Reads {
			if a.Clusters[i].Reads[j] != b.Clusters[i].Reads[j] {
				t.Fatalf("cluster %d read %d differs between Simulate and SimulateCtx", i, j)
			}
		}
	}
}

func TestCoverageModels(t *testing.T) {
	r := rng.New(10)
	if FixedCoverage(5).Sample(0, r) != 5 {
		t.Error("FixedCoverage")
	}
	if !strings.Contains(FixedCoverage(5).Name(), "5") {
		t.Error("FixedCoverage name")
	}
	if (CustomCoverage{}).Sample(3, r) != 0 {
		t.Error("empty CustomCoverage should be 0")
	}
	if CustomCoverage.Name(nil) != "custom" {
		t.Error("CustomCoverage name")
	}

	nb := NegBinCoverage{Mean: 26.97, Dispersion: 2.5}
	const n = 50000
	sum := 0
	zeros := 0
	for i := 0; i < n; i++ {
		v := nb.Sample(i, r)
		if v < 0 {
			t.Fatal("negative coverage")
		}
		if v == 0 {
			zeros++
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-26.97) > 0.5 {
		t.Errorf("negbin mean = %v", mean)
	}
	if zeros == 0 {
		t.Error("overdispersed negbin should produce some natural erasures")
	}

	p := PoissonCoverage(5)
	sum = 0
	for i := 0; i < n; i++ {
		sum += p.Sample(i, r)
	}
	if math.Abs(float64(sum)/n-5) > 0.1 {
		t.Errorf("poisson mean = %v", float64(sum)/n)
	}

	nc := NormalCoverage{Mean: 10, SD: 3}
	sum = 0
	for i := 0; i < n; i++ {
		v := nc.Sample(i, r)
		if v < 0 {
			t.Fatal("negative normal coverage")
		}
		sum += v
	}
	if math.Abs(float64(sum)/n-10) > 0.2 {
		t.Errorf("normal coverage mean = %v", float64(sum)/n)
	}

	ec := Pipeline{Stages: []Stage{Dropout{P: 0.2}}}.BindCoverage(FixedCoverage(10))
	zeros = 0
	for i := 0; i < n; i++ {
		if ec.Sample(i, r) == 0 {
			zeros++
		}
	}
	if math.Abs(float64(zeros)/n-0.2) > 0.01 {
		t.Errorf("erasure rate = %v", float64(zeros)/n)
	}
	for _, name := range []string{nb.Name(), p.Name(), nc.Name(), ec.Name()} {
		if name == "" {
			t.Error("empty coverage model name")
		}
	}
}

func TestCoverageByName(t *testing.T) {
	for name, want := range map[string]CoverageModel{
		"":        FixedCoverage(9),
		"fixed":   FixedCoverage(9),
		"negbin":  NegBinCoverage{Mean: 9, Dispersion: 2.5},
		"poisson": PoissonCoverage(9),
		"normal":  NormalCoverage{Mean: 9, SD: 3},
	} {
		got, err := CoverageByName(name, 9)
		if err != nil || got != want {
			t.Errorf("CoverageByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := CoverageByName("gamma", 9); err == nil || err.Error() != `unknown coverage model "gamma"` {
		t.Errorf("unknown name: %v", err)
	}
}

// TestCoverageByNameRejectsBadMean: a NaN, infinite, negative or
// out-of-int32 mean is an error for every model name, while the bounds
// themselves are accepted.
func TestCoverageByNameRejectsBadMean(t *testing.T) {
	for _, name := range []string{"", "fixed", "negbin", "poisson", "normal"} {
		for _, mean := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, -1e-9, math.MaxInt32 + 1, 1e300} {
			if cov, err := CoverageByName(name, mean); err == nil {
				t.Errorf("CoverageByName(%q, %g) = %v, want an error", name, mean, cov)
			}
		}
		for _, mean := range []float64{0, math.MaxInt32} {
			if _, err := CoverageByName(name, mean); err != nil {
				t.Errorf("CoverageByName(%q, %g): %v", name, mean, err)
			}
		}
	}
}

func TestSimulatorDescribe(t *testing.T) {
	sim := Simulator{Channel: NewNaive("n", EqualMix(0.01)), Coverage: FixedCoverage(5)}
	d := sim.Describe()
	if !strings.Contains(d, "n") || !strings.Contains(d, "fixed(5)") {
		t.Errorf("Describe = %q", d)
	}
}
