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

// faultySimulator builds a simulator with every fault directive layered
// on, for determinism checks.
func faultySimulator() channel.Simulator {
	ch, cov := mustFaults("dropout=0.15,truncate=0.3:0.4,contam=0.1,zerocov=5:3").
		Bind(channel.NewNaive("n", channel.EqualMix(0.03)), channel.FixedCoverage(6))
	return channel.Simulator{Channel: ch, Coverage: cov}
}

// mustFaults parses a faults spec the test knows is valid.
func mustFaults(s string) channel.StageList {
	l, err := channel.ParseFaults(s)
	if err != nil {
		panic(err)
	}
	return l
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
	_, cov := mustFaults("dropout=0.3").Bind(nil, channel.FixedCoverage(10))
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

// TestZeroCoverageRegionExact: zerocov erases exactly its region, also
// when START+LEN would overflow an int.
func TestZeroCoverageRegionExact(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		from, to int
	}{
		{"zerocov=10:5", 10, 15},
		{"zerocov=1:9223372036854775807", 1, 30},
	} {
		_, cov := mustFaults(tc.spec).Bind(nil, channel.FixedCoverage(4))
		r := rng.New(3)
		for i := 0; i < 30; i++ {
			got := cov.Sample(i, r)
			want := 4
			if i >= tc.from && i < tc.to {
				want = 0
			}
			if got != want {
				t.Errorf("%s: cluster %d coverage = %d, want %d", tc.spec, i, got, want)
			}
		}
	}
}

// TestCoverageWrappersForwardRef: a count fault that leaves a cluster's
// count alone must also leave a ref-aware pool stage alone. A GC-bias
// stage that erases an all-GC reference gives the same dataset bare,
// under a zero-coverage region that misses every cluster, and under a
// zero-probability dropout — whether the stage is already bound into the
// base coverage or rides in the channel pipeline that Bind binds.
func TestCoverageWrappersForwardRef(t *testing.T) {
	refs := channel.RandomReferences(8, 60, 21)
	refs[3] = dna.Strand(strings.Repeat("GC", 30))
	naive := channel.NewNaive("n", channel.EqualMix(0.03))
	gc := channel.GCBias{Strength: 50}
	for _, tc := range []struct {
		name string
		ch   channel.Channel
		cov  channel.CoverageModel
	}{
		{"bound base", naive, channel.Pipeline{Stages: []channel.Stage{gc}}.BindCoverage(channel.FixedCoverage(20))},
		{"pipeline", channel.Pipeline{Stages: []channel.Stage{naive, gc}}, channel.FixedCoverage(20)},
	} {
		run := func(faults channel.StageList) []byte {
			ch, cov := faults.Bind(tc.ch, tc.cov)
			sim := channel.Simulator{Channel: ch, Coverage: cov}
			ds, err := sim.SimulateCtx(context.Background(), "gc", refs, 5)
			if err != nil {
				t.Fatal(err)
			}
			if n := ds.Clusters[3].Coverage(); n != 0 {
				t.Errorf("%s: %s: all-GC reference kept %d reads", tc.name, cov.Name(), n)
			}
			var buf bytes.Buffer
			if err := ds.Write(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		want := run(nil)
		for _, faults := range []channel.StageList{
			{{Kind: "zerocov", Start: len(refs), Len: 4}},
			{{Kind: "dropout"}},
		} {
			if got := run(faults); !bytes.Equal(got, want) {
				t.Errorf("%s: %s: dataset differs from the unfaulted run", tc.name, faults)
			}
		}
	}
}

func TestReadTruncation(t *testing.T) {
	clean := channel.NewNaive("clean", channel.Rates{})
	tr := channel.ReadTruncation{Base: clean, P: 1, MinFrac: 0.5}
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
	none := channel.ReadTruncation{Base: clean, P: 0}
	if got := channel.Transmit(none, ref, r); got != ref {
		t.Error("P=0 truncation modified the read")
	}
}

func TestContaminationSpike(t *testing.T) {
	clean := channel.NewNaive("clean", channel.Rates{})
	cs := channel.ContaminationSpike{Base: clean, P: 0.5}
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

func TestSpecWrapLayering(t *testing.T) {
	base := channel.NewNaive("base", channel.Rates{})
	cov := channel.FixedCoverage(3)
	ch2, cov2 := channel.StageList(nil).Bind(base, cov)
	if ch2 != channel.Channel(base) || cov2 != channel.CoverageModel(cov) {
		t.Error("empty spec wrapped something")
	}
	ch3, cov3 := mustFaults("dropout=0.1,truncate=0.2,contam=0.3,zerocov=1:2").Bind(base, cov)
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
	sp, err := channel.ParseFaults("dropout=0.1")
	if err != nil {
		t.Fatal(err)
	}
	ch, cov := sp.Bind(channel.NewNaive("dnasimd", channel.Rates{Sub: 0.01}), channel.NegBinCoverage{Mean: 8, Dispersion: 2.5})
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
