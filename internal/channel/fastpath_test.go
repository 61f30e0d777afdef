package channel

import (
	"fmt"
	"sync"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Tests for the integer draw-grid machinery behind the compiled plan
// (lowerBound / chainBoundaries) and for the AppendTransmit arena fast
// path: concurrent Scratch reuse.

// TestLowerBound pins the search contract: smallest i with u < a[i],
// len(a) when no element is above u — including empty input, duplicate
// boundaries (zero-weight outcomes) and exact-boundary hits.
func TestLowerBound(t *testing.T) {
	cases := []struct {
		a    []uint64
		u    uint64
		want int
	}{
		{nil, 0, 0},
		{nil, 42, 0},
		{[]uint64{10}, 9, 0},
		{[]uint64{10}, 10, 1},
		{[]uint64{10}, 11, 1},
		{[]uint64{1, 3, 5}, 0, 0},
		{[]uint64{1, 3, 5}, 1, 1},
		{[]uint64{1, 3, 5}, 2, 1},
		{[]uint64{1, 3, 5}, 3, 2},
		{[]uint64{1, 3, 5}, 4, 2},
		{[]uint64{1, 3, 5}, 5, 3},
		{[]uint64{1, 3, 5}, 6, 3},
		// Duplicates arise from zero-weight outcomes: the walk can never
		// stop on them, and lowerBound must skip past the whole run.
		{[]uint64{5, 5, 7}, 4, 0},
		{[]uint64{5, 5, 7}, 5, 2},
		{[]uint64{5, 5, 7}, 6, 2},
		{[]uint64{5, 5, 7}, 7, 3},
		{[]uint64{0, 0, 0}, 0, 3},
		{[]uint64{drawGrid, drawGrid}, drawGrid - 1, 0},
	}
	for _, c := range cases {
		if got := lowerBound(c.a, c.u); got != c.want {
			t.Errorf("lowerBound(%v, %d) = %d, want %d", c.a, c.u, got, c.want)
		}
	}
}

// linearPick replicates the reference samplers' subtraction walk for one
// draw f: u := f*total, subtract weights in order, select at the first
// u < 0, fall through to len(weights) if the chain survives. This is the
// executable spec chainBoundaries + lowerBound must reproduce exactly.
func linearPick(weights []float64, total, f float64) int {
	u := f * total
	for j, w := range weights {
		u -= w
		if u < 0 {
			return j
		}
	}
	return len(weights)
}

// TestChainBoundariesMatchLinearWalk checks that binary search over the
// precomputed boundaries selects the same outcome as the reference
// subtraction walk for every probed draw — at each boundary and one grid
// ulp either side (where float rounding would first disagree), plus a
// spread of random draws.
func TestChainBoundariesMatchLinearWalk(t *testing.T) {
	weightSets := []struct {
		weights []float64
		total   float64
	}{
		{[]float64{0.2, 0.3, 0.5}, 1},
		{[]float64{0.2, 0.3, 0.5}, 1.2},                // chain can survive: fallback outcome
		{[]float64{0, 0.3, 0, 0.2}, 0.5},               // zero-weight outcomes
		{[]float64{0.1, 0.2, 0.3}, 0.6},                // total carries float residue vs the sum
		{[]float64{1e-18, 0.5, 1e-18}, 0.5},            // weights below one grid step
		{[]float64{0.25, 0.25, 0.25, 0.25}, 1},         // exact binary fractions
		{[]float64{0.022, 0.011, 0.023, 0.003}, 0.059}, // nanopore-shaped rates
		{[]float64{0, 0, 0}, 1},                        // nothing selectable
	}
	gen := rng.New(20260808)
	for si, ws := range weightSets {
		cdf := make([]uint64, len(ws.weights))
		chainBoundaries(cdf, ws.weights, ws.total)
		probe := func(bits uint64) {
			if bits >= drawGrid {
				return // not a representable draw
			}
			got := lowerBound(cdf, bits)
			want := linearPick(ws.weights, ws.total, float64(bits)/drawGrid)
			if got != want {
				t.Fatalf("set %d: draw %d/2^53: binary search picks %d, linear walk picks %d (cdf %v)",
					si, bits, got, want, cdf)
			}
		}
		for _, b := range cdf {
			if b > 0 {
				probe(b - 1)
			}
			probe(b)
			probe(b + 1)
		}
		probe(0)
		probe(drawGrid - 1)
		for k := 0; k < 2000; k++ {
			probe(gen.Uint64() >> 11)
		}
	}
}

// TestScratchConcurrentReuse hammers the arena fast path from many
// goroutines sharing one model (and so one compiled-plan cache), each
// with its own Scratch, and checks every read against the reference
// path. Run under -race this exercises the plan cache publication and
// proves the per-worker batch buffers never alias.
func TestScratchConcurrentReuse(t *testing.T) {
	m := goldenModelSecondOrder()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scr Scratch
			for k := 0; k < perWorker; k++ {
				seed := uint64(w*perWorker+k)*2654435761 + 1
				ref := RandomReferences(1, 64+(k%128), seed)[0]
				r1, r2 := rng.New(seed), rng.New(seed)
				got := dna.Strand(m.AppendTransmit(nil, scr.RefBases(ref), r1, &scr))
				want := m.transmitReference(ref, r2)
				if got != want {
					errs <- fmt.Errorf("worker %d read %d: output diverges", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAppendTransmitZeroAlloc is the exact allocation gate for the packed
// kernels every simulation worker runs: once the arena is warm, a read
// through second-order + spatial Model, DNASimulator, the 4-stage
// pipelines (the physical one's PCR and aging stages hand codes on through
// their embedded Model) or a pipeline whose intermediate DNASimulator
// takes the ASCII hand-off allocates nothing. It fails on any allocation
// without a timing run; TestSimulateAllocs pins whole simulations.
func TestAppendTransmitZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   AppendTransmitter
	}{
		{"secondorder-spatial", goldenModelSecondOrder()},
		{"dnasimulator", NewDNASimulator("alloc", DefaultNanoporeDict())},
		{"pipeline-4stage", NewStoragePipeline("alloc-pipe", 0.059, 10)},
		{"pipeline-physical", NewPhysicalPipeline("alloc-phys", 0.059, 10)},
		{"pipeline-dnasimulator-mid", Pipeline{Label: "alloc-mixed", Stages: []Stage{
			NewSynthesisStage(0.0118), NewDNASimulator("mid", DefaultNanoporeDict()), NewNaive("n", EqualMix(0.02)),
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := RandomReferences(1, 110, 42)[0]
			r := rng.New(99)
			var scr Scratch
			codes := scr.RefBases(ref)
			// Warm the plan cache and grow the buffers past any read this
			// stream can produce.
			dst := make([]byte, 0, 1024)
			for i := 0; i < 100; i++ {
				dst = tc.at.AppendTransmit(dst[:0], codes, r, &scr)
			}
			if a := testing.AllocsPerRun(1000, func() {
				dst = tc.at.AppendTransmit(dst[:0], codes, r, &scr)
			}); a != 0 {
				t.Errorf("%v allocs per AppendTransmit, want 0", a)
			}
		})
	}
}

// TestSimulateAllocs pins the allocation count of a whole Simulate call on
// two shapes: a naive channel at fixed coverage, and the second-order +
// spatial model under heavy-tailed coverage, which runs the compiled plan
// and the work-stealing scheduler together. Most of a simulation's
// allocations are its output (one read slice per cluster), so the count
// is exact and the same at any GOMAXPROCS. A count more than 15% and more
// than 8 allocations above the recorded one fails: that is a lost pooling
// or escape-analysis optimisation that a timing run would drown in noise.
func TestSimulateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 600 clusters per run")
	}
	for _, tc := range []struct {
		name     string
		clusters int
		sim      Simulator
		want     float64
	}{
		{"naive-fixed8", 200, Simulator{
			Channel:  NewNaive("alloc", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
			Coverage: FixedCoverage(8),
		}, 628},
		{"secondorder-spatial-negbin", 400, Simulator{
			Channel:  goldenModelSecondOrder(),
			Coverage: NegBinCoverage{Mean: 10, Dispersion: 1.2},
		}, 1209},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refs := RandomReferences(tc.clusters, 110, 1)
			got := testing.AllocsPerRun(5, func() { tc.sim.Simulate("alloc", refs, 1) })
			t.Logf("%v allocs per Simulate", got)
			if got-tc.want > 0.15*tc.want && got-tc.want > 8 {
				t.Errorf("%v allocs per Simulate, want at most 15%% and 8 above %v", got, tc.want)
			}
		})
	}
}
