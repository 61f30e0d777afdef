package channel

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Differential tests for the compiled transmission plan: Transmit must
// match transmitReference byte-for-byte AND draw-for-draw (the RNG must be
// left in an identical state, or downstream reads in the same cluster
// would diverge).

// diffCheck transmits ref through all three paths — Transmit, the
// AppendTransmit arena fast path, and transmitReference — from
// identically-seeded RNGs and fails on any output or RNG-state
// divergence.
func diffCheck(t *testing.T, label string, m *Model, ref dna.Strand, seed uint64) {
	t.Helper()
	r1, r2, r3 := rng.New(seed), rng.New(seed), rng.New(seed)
	got := Transmit(m, ref, r1)
	want := m.transmitReference(ref, r2)
	if got != want {
		t.Fatalf("%s: seed %d len %d: compiled output diverges\n got: %s\nwant: %s",
			label, seed, ref.Len(), got, want)
	}
	var scr Scratch
	appended := dna.Strand(m.AppendTransmit(nil, scr.RefBases(ref), r3, &scr))
	if appended != want {
		t.Fatalf("%s: seed %d len %d: AppendTransmit output diverges\n got: %s\nwant: %s",
			label, seed, ref.Len(), appended, want)
	}
	for k := 0; k < 3; k++ {
		a, b, c := r1.Uint64(), r2.Uint64(), r3.Uint64()
		if a != b {
			t.Fatalf("%s: seed %d len %d: RNG state diverged after transmit (draw %d: %x vs %x)",
				label, seed, ref.Len(), k, a, b)
		}
		if c != b {
			t.Fatalf("%s: seed %d len %d: RNG state diverged after AppendTransmit (draw %d: %x vs %x)",
				label, seed, ref.Len(), k, c, b)
		}
	}
}

// diffLengths exercises tiny, prime, and longer-than-histogram strands.
var diffLengths = []int{1, 2, 3, 5, 17, 64, 110, 137, 256, 310}

// TestTransmitMatchesReferenceGoldenModels runs the differential check
// over the golden model matrix.
func TestTransmitMatchesReferenceGoldenModels(t *testing.T) {
	models := map[string]*Model{
		"naive":       NewNaive("naive", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
		"cond":        goldenModelCond(),
		"spatial":     goldenModelCond().WithSpatial(dist.NanoporeSkew()),
		"secondorder": goldenModelSecondOrder(),
		"highrate":    goldenModelHighRate(),
		"zero":        &Model{Label: "zero"},
	}
	for name, m := range models {
		for _, length := range diffLengths {
			for seed := uint64(1); seed <= 25; seed++ {
				ref := RandomReferences(1, length, seed)[0]
				diffCheck(t, name, m, ref, seed*31+uint64(length))
			}
		}
	}
}

// randomModel draws an arbitrary (sometimes pathological) model: random
// conditional rates, sometimes-zero confusion rows and insertion
// distributions, optional long deletions, every spatial family, and up to
// six second-order errors with uniform, shorter-than-strand and
// longer-than-strand histograms.
func randomModel(r *rng.RNG) *Model {
	m := &Model{Label: "fuzz"}
	hot := 1.0
	if r.Bool(0.2) {
		hot = 8 // push totals into the maxPositionRate clamp
	}
	for b := range m.PerBase {
		m.PerBase[b] = Rates{
			Sub: r.Float64() * 0.05 * hot,
			Ins: r.Float64() * 0.03 * hot,
			Del: r.Float64() * 0.05 * hot,
		}
	}
	if r.Bool(0.6) {
		for b := range m.SubMatrix {
			if r.Bool(0.25) {
				continue // all-zero row: uniform fallback path
			}
			for c := range m.SubMatrix[b] {
				if c != b {
					m.SubMatrix[b][c] = r.Float64()
				}
			}
		}
	}
	if r.Bool(0.5) {
		for c := range m.InsDist {
			m.InsDist[c] = r.Float64()
		}
	}
	if r.Bool(0.6) {
		m.LongDel = PaperLongDeletion()
		if r.Bool(0.3) {
			m.LongDel.LengthWeights = nil // no-draw burst length path
		}
	}
	switch r.Intn(5) {
	case 0:
		// nil spatial (uniform plan)
	case 1:
		m.Spatial = dist.TriangularA{}
	case 2:
		m.Spatial = dist.TriangularV{}
	case 3:
		m.Spatial = dist.NanoporeSkew()
	case 4:
		w := make([]float64, 2+r.Intn(400))
		for i := range w {
			w[i] = r.Float64()
		}
		m.Spatial = dist.Empirical{Weights: w}
	}
	nSO := r.Intn(7)
	for k := 0; k < nSO; k++ {
		e := SecondOrderError{Rate: r.Float64() * 0.02}
		switch r.Intn(3) {
		case 0:
			e.Kind = align.Sub
			e.From = dna.Base(r.Intn(dna.NumBases))
			e.To = dna.Base(r.Intn(dna.NumBases))
		case 1:
			e.Kind = align.Del
			e.From = dna.Base(r.Intn(dna.NumBases))
		case 2:
			e.Kind = align.Ins
			e.To = dna.Base(r.Intn(dna.NumBases))
		}
		if r.Bool(0.6) {
			e.Spatial = make([]float64, 1+r.Intn(400))
			for i := range e.Spatial {
				e.Spatial[i] = r.Float64()
			}
		}
		m.SecondOrder = append(m.SecondOrder, e)
	}
	return m
}

// TestTransmitMatchesReferenceFuzz hammers the differential check with
// randomized models.
func TestTransmitMatchesReferenceFuzz(t *testing.T) {
	gen := rng.New(2024)
	n := 60
	if testing.Short() {
		n = 10
	}
	for trial := 0; trial < n; trial++ {
		m := randomModel(gen)
		for _, length := range []int{1, 7, 110, 301} {
			ref := RandomReferences(1, length, gen.Uint64())[0]
			diffCheck(t, fmt.Sprintf("fuzz-%d", trial), m, ref, gen.Uint64())
		}
	}
}

// TestPlanCacheConcurrent is the -race hammer for the copy-on-write plan
// cache: goroutines race to compile interleaved strand lengths on one
// shared model, and every output must still match the reference path.
func TestPlanCacheConcurrent(t *testing.T) {
	m := goldenModelSecondOrder()
	lengths := make([]int, 24)
	for i := range lengths {
		lengths[i] = 40 + 7*i
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				length := lengths[(g+rep)%len(lengths)]
				seed := uint64(g*1000 + rep)
				ref := RandomReferences(1, length, seed)[0]
				r1, r2 := rng.New(seed), rng.New(seed)
				if got, want := Transmit(m, ref, r1), m.transmitReference(ref, r2); got != want {
					errs <- fmt.Errorf("goroutine %d rep %d len %d: output diverged", g, rep, length)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := m.planStats(); got != len(lengths) {
		t.Errorf("plan cache holds %d lengths, want %d", got, len(lengths))
	}
}

// allA returns a homogeneous strand, which makes realized per-error rates
// directly countable without alignment.
func allA(length int) dna.Strand {
	return dna.Strand(strings.Repeat("A", length))
}

// realizedTolerance is ~5 sigma for one million Bernoulli trials at the
// rates used below.
const realizedTolerance = 0.0015

// TestSecondOrderRealizedRates pins the realized per-error rates of the
// compiled plan to their configured Rate — the statistical guarantee the
// old twin-loop implementation could silently lose to accumulation drift.
// Each sub-test isolates one second-order error on an all-A reference so
// the realized rate is countable exactly; spatial histograms are mean-1,
// so they redistribute but must not change the aggregate.
func TestSecondOrderRealizedRates(t *testing.T) {
	const (
		length = 200
		reads  = 5000 // 1e6 base-positions
	)
	positions := float64(length * reads)
	ref := allA(length)

	t.Run("sub", func(t *testing.T) {
		m := &Model{Label: "so-sub"}
		m.SecondOrder = []SecondOrderError{{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 0.05,
			Spatial: spikeWeights(length)}}
		r := rng.New(1)
		subs := 0
		for k := 0; k < reads; k++ {
			out := Transmit(m, ref, r)
			subs += strings.Count(string(out), "G")
		}
		assertRate(t, "sub(A→G)", float64(subs)/positions, 0.05)
	})
	t.Run("del", func(t *testing.T) {
		m := &Model{Label: "so-del"}
		m.SecondOrder = []SecondOrderError{{Kind: align.Del, From: dna.A, Rate: 0.04,
			Spatial: spikeWeights(length)}}
		r := rng.New(2)
		deleted := 0
		for k := 0; k < reads; k++ {
			out := Transmit(m, ref, r)
			deleted += length - out.Len()
		}
		assertRate(t, "del(A)", float64(deleted)/positions, 0.04)
	})
	t.Run("ins", func(t *testing.T) {
		m := &Model{Label: "so-ins"}
		m.SecondOrder = []SecondOrderError{{Kind: align.Ins, To: dna.T, Rate: 0.03,
			Spatial: spikeWeights(length)}}
		r := rng.New(3)
		inserted := 0
		for k := 0; k < reads; k++ {
			out := Transmit(m, ref, r)
			inserted += out.Len() - length
		}
		assertRate(t, "ins(T)", float64(inserted)/positions, 0.03)
	})
	t.Run("stacked", func(t *testing.T) {
		// Two errors on the same base plus generic mass: the shared table
		// must keep each component's rate, not just the sum.
		m := &Model{Label: "so-stacked"}
		m.PerBase[dna.A] = Rates{Del: 0.02}
		m.SecondOrder = []SecondOrderError{
			{Kind: align.Sub, From: dna.A, To: dna.C, Rate: 0.03},
			{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 0.015, Spatial: spikeWeights(length)},
		}
		r := rng.New(4)
		var c, g, deleted int
		for k := 0; k < reads; k++ {
			out := Transmit(m, ref, r)
			c += strings.Count(string(out), "C")
			g += strings.Count(string(out), "G")
			deleted += length - out.Len()
		}
		assertRate(t, "sub(A→C)", float64(c)/positions, 0.03)
		assertRate(t, "sub(A→G)", float64(g)/positions, 0.015)
		assertRate(t, "generic del", float64(deleted)/positions, 0.02)
	})
}

// spikeWeights returns a mean-preserving histogram with a terminal spike,
// matching the strand length so no resampling blurs the expectation.
func spikeWeights(length int) []float64 {
	w := make([]float64, length)
	for i := range w {
		w[i] = 1
	}
	w[length-1] = 21 // boosts the last position 20× above baseline mass
	return w
}

// assertRate checks a realized rate against its configured value.
func assertRate(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > realizedTolerance {
		t.Errorf("%s: realized rate %.5f, configured %.5f (Δ %.5f > %.5f)",
			label, got, want, math.Abs(got-want), realizedTolerance)
	}
}

// TestDescribeUnset: Describe must be safe on a half-configured Simulator
// (SimulateCtx refuses to run it; Describe merely reports it).
func TestDescribeUnset(t *testing.T) {
	var s Simulator
	if got, want := s.Describe(), "channel=<unset> coverage=<unset>"; got != want {
		t.Errorf("Describe() = %q, want %q", got, want)
	}
	s.Channel = NewNaive("n", Rates{})
	if got, want := s.Describe(), "channel=n coverage=<unset>"; got != want {
		t.Errorf("Describe() = %q, want %q", got, want)
	}
	s.Coverage = FixedCoverage(3)
	if got, want := s.Describe(), "channel=n coverage=fixed(3)"; got != want {
		t.Errorf("Describe() = %q, want %q", got, want)
	}
}

// TestCheckpointResumeSecondOrderByteIdentical: checkpoint-resume must
// stay byte-identical under the compiled plan for the full model tier
// (the existing checkpoint drill uses the naive tier).
func TestCheckpointResumeSecondOrderByteIdentical(t *testing.T) {
	sim := Simulator{Channel: goldenModelSecondOrder(), Coverage: NegBinCoverage{Mean: 8, Dispersion: 2}}
	refs := RandomReferences(30, 110, 5)
	const seed = 77

	straight, err := sim.SimulateCtx(context.Background(), "ckpt", refs, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := hashDataset(straight)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := OpenCheckpoint(path, "ckpt", refs, seed, sim.Describe())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ckpt.OnCommit = func(commits int) {
		if commits >= 10 {
			cancel()
		}
	}
	if _, err := sim.SimulateRange(ctx, "ckpt", refs, seed, 0, len(refs), ckpt); err == nil {
		t.Fatal("interrupted run returned nil error")
	}
	ckpt.Close()
	cancel()

	ckpt2, err := OpenCheckpoint(path, "ckpt", refs, seed, sim.Describe())
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	resumed, err := sim.SimulateRange(context.Background(), "ckpt", refs, seed, 0, len(refs), ckpt2)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashDataset(resumed); got != want {
		t.Errorf("resumed dataset hash %s != straight-run hash %s", got, want)
	}
}

// planStats reports cache contents for tests: the number of compiled
// lengths currently installed.
func (m *Model) planStats() int {
	cur := m.plans.Load()
	if cur == nil {
		return 0
	}
	return len(*cur)
}
