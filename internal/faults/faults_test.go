package faults

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// faultySimulator builds a simulator with every injector layered on, for
// determinism checks.
func faultySimulator() channel.Simulator {
	spec := Spec{
		Dropout:      0.15,
		TruncP:       0.3,
		TruncMinFrac: 0.4,
		ContamP:      0.1,
		ZeroStart:    5,
		ZeroLen:      3,
	}
	ch, cov := spec.Wrap(channel.NewNaive("n", channel.EqualMix(0.03)), channel.FixedCoverage(6))
	return channel.Simulator{Channel: ch, Coverage: cov}
}

func datasetsEqual(a, b *dataset.Dataset) bool {
	if len(a.Clusters) != len(b.Clusters) {
		return false
	}
	for i := range a.Clusters {
		if a.Clusters[i].Ref != b.Clusters[i].Ref || len(a.Clusters[i].Reads) != len(b.Clusters[i].Reads) {
			return false
		}
		for j := range a.Clusters[i].Reads {
			if a.Clusters[i].Reads[j] != b.Clusters[i].Reads[j] {
				return false
			}
		}
	}
	return true
}

func TestInjectorsDeterministic(t *testing.T) {
	refs := channel.RandomReferences(40, 80, 11)
	sim := faultySimulator()
	a, err := sim.SimulateCtx(context.Background(), "a", refs, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.SimulateCtx(context.Background(), "b", refs, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(a, b) {
		t.Fatal("same seed + same fault spec produced different datasets")
	}
	c, err := sim.SimulateCtx(context.Background(), "c", refs, 43)
	if err != nil {
		t.Fatal(err)
	}
	if datasetsEqual(a, c) {
		t.Fatal("different seeds produced identical faulted datasets")
	}
}

func TestClusterDropout(t *testing.T) {
	_, cov := Spec{Dropout: 0.3}.Wrap(nil, channel.FixedCoverage(10))
	r := rng.New(7)
	const n = 20000
	zeros := 0
	for i := 0; i < n; i++ {
		v := cov.Sample(i, r)
		if v == 0 {
			zeros++
		} else if v != 10 {
			t.Fatalf("surviving cluster got coverage %d", v)
		}
	}
	frac := float64(zeros) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("dropout rate = %v, want ~0.3", frac)
	}
	if !strings.Contains(cov.Name(), "dropout") {
		t.Errorf("Name = %q", cov.Name())
	}
}

func TestZeroCoverageRegionExact(t *testing.T) {
	cov := ZeroCoverageRegion{Base: channel.FixedCoverage(4), Start: 10, Len: 5}
	r := rng.New(3)
	for i := 0; i < 30; i++ {
		got := cov.Sample(i, r)
		want := 4
		if i >= 10 && i < 15 {
			want = 0
		}
		if got != want {
			t.Errorf("cluster %d coverage = %d, want %d", i, got, want)
		}
	}
}

// TestCoverageWrappersForwardRef: a fault wrapper that leaves a cluster's
// count alone must also leave a ref-aware base model alone. A GC-bias
// binding that erases an all-GC reference gives the same dataset bare,
// under a zero-coverage region that misses every cluster, and under a
// zero-probability dropout.
func TestCoverageWrappersForwardRef(t *testing.T) {
	refs := channel.RandomReferences(8, 60, 21)
	refs[3] = dna.Strand(strings.Repeat("GC", 30))
	base := channel.Pipeline{Stages: []channel.Stage{channel.GCBias{Strength: 50}}}.
		BindCoverage(channel.FixedCoverage(20))
	run := func(cov channel.CoverageModel) []byte {
		sim := channel.Simulator{Channel: channel.NewNaive("n", channel.EqualMix(0.03)), Coverage: cov}
		ds, err := sim.SimulateCtx(context.Background(), "gc", refs, 5)
		if err != nil {
			t.Fatal(err)
		}
		if n := ds.Clusters[3].Coverage(); n != 0 {
			t.Errorf("%s: all-GC reference kept %d reads", cov.Name(), n)
		}
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run(base)
	for _, cov := range []channel.CoverageModel{
		ZeroCoverageRegion{Base: base, Start: len(refs), Len: 4},
		channel.ErasureCoverage{Base: base, P: 0},
	} {
		if got := run(cov); !bytes.Equal(got, want) {
			t.Errorf("%s: dataset differs from the unwrapped run", cov.Name())
		}
	}
}

func TestReadTruncation(t *testing.T) {
	clean := channel.NewNaive("clean", channel.Rates{})
	tr := ReadTruncation{Base: clean, P: 1, MinFrac: 0.5}
	ref := channel.RandomReferences(1, 100, 9)[0]
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		read := channel.Transmit(tr, ref, r)
		if read.Len() >= ref.Len() {
			t.Fatalf("read %d not truncated: len %d", i, read.Len())
		}
		if read.Len() < 49 { // minFrac 0.5 of 100, allow the floor
			t.Fatalf("read %d over-truncated: len %d", i, read.Len())
		}
		if ref[:read.Len()] != read {
			t.Fatalf("truncation is not a prefix")
		}
	}
	// P=0 leaves reads alone.
	none := ReadTruncation{Base: clean, P: 0}
	if got := channel.Transmit(none, ref, r); got != ref {
		t.Error("P=0 truncation modified the read")
	}
}

func TestContaminationSpike(t *testing.T) {
	clean := channel.NewNaive("clean", channel.Rates{})
	cs := ContaminationSpike{Base: clean, P: 0.5}
	ref := channel.RandomReferences(1, 80, 13)[0]
	r := rng.New(8)
	const n = 4000
	contaminated := 0
	for i := 0; i < n; i++ {
		read := channel.Transmit(cs, ref, r)
		if err := read.Validate(); err != nil {
			t.Fatalf("contaminated read invalid: %v", err)
		}
		if read != ref {
			contaminated++
		}
	}
	frac := float64(contaminated) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("contamination rate = %v, want ~0.5", frac)
	}
}

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("dropout=0.1,truncate=0.3:0.5,contam=0.02,zerocov=10:5")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Dropout: 0.1, TruncP: 0.3, TruncMinFrac: 0.5, ContamP: 0.02, ZeroStart: 10, ZeroLen: 5}
	if sp != want {
		t.Fatalf("ParseSpec = %+v, want %+v", sp, want)
	}
	if sp.Empty() {
		t.Error("populated spec reported Empty")
	}
	// String round-trips.
	again, err := ParseSpec(sp.String())
	if err != nil || again != sp {
		t.Fatalf("round trip %q -> %+v (%v)", sp.String(), again, err)
	}
	// Empty spec.
	if sp, err := ParseSpec("  "); err != nil || !sp.Empty() {
		t.Errorf("blank spec: %+v, %v", sp, err)
	}
	// Truncate without min fraction.
	if sp, err := ParseSpec("truncate=0.4"); err != nil || sp.TruncP != 0.4 || sp.TruncMinFrac != 0 {
		t.Errorf("truncate=0.4: %+v, %v", sp, err)
	}
	for _, bad := range []string{
		"dropout", "dropout=1.5", "dropout=-0.1", "dropout=x",
		"truncate=0.3:1.5", "zerocov=5", "zerocov=-1:3", "zerocov=2:0",
		"warp=0.5",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecWrapLayering(t *testing.T) {
	base := channel.NewNaive("base", channel.Rates{})
	cov := channel.FixedCoverage(3)
	ch2, cov2 := Spec{}.Wrap(base, cov)
	if ch2 != channel.Channel(base) || cov2 != channel.CoverageModel(cov) {
		t.Error("empty spec wrapped something")
	}
	sp := Spec{Dropout: 0.1, TruncP: 0.2, ContamP: 0.3, ZeroStart: 1, ZeroLen: 2}
	ch3, cov3 := sp.Wrap(base, cov)
	if !strings.Contains(ch3.Name(), "truncate") || !strings.Contains(ch3.Name(), "contam") {
		t.Errorf("channel name missing injectors: %q", ch3.Name())
	}
	if !strings.Contains(cov3.Name(), "dropout") || !strings.Contains(cov3.Name(), "zerocov") {
		t.Errorf("coverage name missing injectors: %q", cov3.Name())
	}
}

// TestDropoutDescribePinned pins the Describe string of a dropout spec:
// dnasim and dnasimd key their checkpoint journals by it, so a change
// would orphan every journal written before it.
func TestDropoutDescribePinned(t *testing.T) {
	sp, err := ParseSpec("dropout=0.1")
	if err != nil {
		t.Fatal(err)
	}
	ch, cov := sp.Wrap(channel.NewNaive("dnasimd", channel.Rates{Sub: 0.01}), channel.NegBinCoverage{Mean: 8, Dispersion: 2.5})
	const want = "channel=dnasimd coverage=negbin(μ=8.0,k=2.5)+dropout(0.100)"
	if got := (channel.Simulator{Channel: ch, Coverage: cov}).Describe(); got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
}

func TestCorruptPoolDeterministic(t *testing.T) {
	data := []byte(`{"version":1,"objects":[{"key":"x","primer":"ACGT","strands":["ACGT"]}]}`)
	for _, mode := range []CorruptMode{CorruptFlipBytes, CorruptTruncate, CorruptGarbageHead} {
		a := CorruptPool(data, mode, 4, rng.New(9))
		b := CorruptPool(data, mode, 4, rng.New(9))
		if !bytes.Equal(a, b) {
			t.Errorf("mode %d not deterministic", mode)
		}
		if bytes.Equal(a, data) && mode != CorruptTruncate {
			t.Errorf("mode %d left data untouched", mode)
		}
	}
	// The input must never be modified.
	orig := append([]byte(nil), data...)
	CorruptPool(data, CorruptFlipBytes, 8, rng.New(2))
	if !bytes.Equal(data, orig) {
		t.Error("CorruptPool modified its input")
	}
	// Empty input is a no-op.
	if out := CorruptPool(nil, CorruptFlipBytes, 1, rng.New(1)); len(out) != 0 {
		t.Error("empty input grew")
	}
}
