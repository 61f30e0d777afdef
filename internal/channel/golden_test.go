package channel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/dataset"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
)

// The golden-seed contract: the compiled-plan Transmit rewrite must be a
// pure performance change. These hashes were captured from the original
// mutex-guarded double-scan implementation (plus the area-weighted resample
// fix, which predates the rewrite) and pin Simulate output byte-for-byte
// for every model tier, under any worker count. If a hash here ever needs
// to change, the channel's sampling semantics changed — that is a
// result-invalidating event for every experiment table, not a test update.

// goldenCase is one pinned workload.
type goldenCase struct {
	name     string
	channel  Channel
	coverage CoverageModel
	clusters int
	refLen   int
	seed     uint64
	hash     string // sha256 prefix of the dataset; "" until captured
}

// goldenModelCond returns the "+ Cond. Prob + Del" tier: per-base rates,
// confusion matrix, insertion distribution and long deletions.
func goldenModelCond() *Model {
	m := &Model{Label: "golden-cond"}
	m.PerBase[dna.A] = Rates{Sub: 0.010, Ins: 0.004, Del: 0.021}
	m.PerBase[dna.C] = Rates{Sub: 0.025, Ins: 0.006, Del: 0.015}
	m.PerBase[dna.G] = Rates{Sub: 0.018, Ins: 0.003, Del: 0.030}
	m.PerBase[dna.T] = Rates{Sub: 0.008, Ins: 0.007, Del: 0.012}
	m.SubMatrix[dna.A] = [dna.NumBases]float64{0, 0.2, 0.6, 0.2}
	m.SubMatrix[dna.C] = [dna.NumBases]float64{0.3, 0, 0.2, 0.5}
	m.SubMatrix[dna.G] = [dna.NumBases]float64{0.55, 0.25, 0, 0.2}
	// T row left all-zero: exercises the uniform fallback (Intn draw).
	m.InsDist = [dna.NumBases]float64{0.4, 0.1, 0.1, 0.4}
	m.LongDel = PaperLongDeletion()
	return m
}

// goldenModelSecondOrder returns the full "+ 2nd-order Errors" tier with
// spatial skew and per-error empirical spatials covering the uniform,
// upsampled and downsampled histogram paths.
func goldenModelSecondOrder() *Model {
	m := goldenModelCond().WithSpatial(dist.NanoporeSkew())
	long := make([]float64, 300) // longer than any test strand: downsampled
	for i := range long {
		long[i] = 1
	}
	long[299] = 40
	long[0] = 10
	return m.WithSecondOrder([]SecondOrderError{
		{Kind: align.Del, From: dna.G, Rate: 0.011, Spatial: []float64{1, 1, 1, 1, 8}}, // upsampled
		{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 0.006},                         // uniform
		{Kind: align.Ins, To: dna.T, Rate: 0.002, Spatial: long},                       // downsampled
	})
}

// goldenModelHighRate drives boosted positions past maxPositionRate so the
// probability-scale clamp is exercised.
func goldenModelHighRate() *Model {
	m := NewNaive("golden-high", Rates{Sub: 0.15, Ins: 0.05, Del: 0.15})
	m.LongDel = PaperLongDeletion()
	m.LongDel.Prob = 0.05
	return m.WithSpatial(dist.TerminalSkew{StartPositions: 2, EndPositions: 2, StartBoost: 6, EndBoost: 12})
}

// goldenChimera injects chimeras among the chimera case's references
// (runGolden draws the same RandomReferences).
func goldenChimera() *Chimera {
	ch, err := NewChimera(NewNaive("golden-chimera", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}), RandomReferences(40, 110, 41), 0.2)
	if err != nil {
		panic(err)
	}
	return ch
}

// goldenHomopolymer boosts errors inside homopolymer runs of a spatially
// skewed model, so the per-strand multiplier composes with a non-uniform
// base shape.
func goldenHomopolymer() *HomopolymerModel {
	h, err := NewHomopolymerModel(goldenModelCond().WithSpatial(dist.NanoporeSkew()), 3, 3)
	if err != nil {
		panic(err)
	}
	return h
}

// goldenChimeraPipeline injects chimeras ahead of the population-aware
// pipeline, among the chimera-pipeline case's references.
func goldenChimeraPipeline(physical Pipeline) *Chimera {
	ch, err := NewChimera(physical, RandomReferences(40, 110, 47), 0.15)
	if err != nil {
		panic(err)
	}
	return ch
}

// goldenCases is the pinned workload matrix. Hashes are filled in below.
func goldenCases() []goldenCase {
	physical := NewPhysicalPipeline("golden-physical", 0.059, 100)
	return []goldenCase{
		{
			name:     "naive",
			channel:  NewNaive("golden-naive", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
			coverage: FixedCoverage(6),
			clusters: 60, refLen: 110, seed: 7,
			hash: goldenHashNaive,
		},
		{
			name:     "cond",
			channel:  goldenModelCond(),
			coverage: NegBinCoverage{Mean: 8, Dispersion: 2.5},
			clusters: 60, refLen: 110, seed: 11,
			hash: goldenHashCond,
		},
		{
			name:     "spatial",
			channel:  goldenModelCond().WithSpatial(dist.NanoporeSkew()),
			coverage: FixedCoverage(5),
			clusters: 50, refLen: 137, seed: 13,
			hash: goldenHashSpatial,
		},
		{
			name:     "secondorder",
			channel:  goldenModelSecondOrder(),
			coverage: NegBinCoverage{Mean: 10, Dispersion: 1.8},
			clusters: 50, refLen: 110, seed: 17,
			hash: goldenHashSecondOrder,
		},
		{
			name:     "highrate-clamped",
			channel:  goldenModelHighRate(),
			coverage: FixedCoverage(4),
			clusters: 40, refLen: 75, seed: 19,
			hash: goldenHashHighRate,
		},
		{
			name:     "dnasimulator",
			channel:  NewDNASimulator("golden-dnasim", DefaultNanoporeDict()),
			coverage: PoissonCoverage(7),
			clusters: 60, refLen: 110, seed: 23,
			hash: goldenHashDNASim,
		},
		{
			name:     "pipeline-staged",
			channel:  NewStoragePipeline("golden-pipe", 0.059, 10),
			coverage: FixedCoverage(5),
			clusters: 40, refLen: 110, seed: 29,
			hash: goldenHashPipeline,
		},
		{
			// The population-aware pipeline: pool stages bound over the
			// base coverage, so PCR skew and breakage draws interleave the
			// per-cluster stream ahead of the reads.
			name:     "pipeline-pool",
			channel:  physical,
			coverage: physical.BindCoverage(NegBinCoverage{Mean: 8, Dispersion: 2.5}),
			clusters: 40, refLen: 110, seed: 31,
			hash: goldenHashPipelinePool,
		},
		{
			// GC-biased thinning: a ref-aware binomial draw after the base
			// coverage draw, ahead of the reads.
			name:     "gcbias",
			channel:  NewNaive("golden-gc", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
			coverage: Pipeline{Stages: []Stage{GCBias{Strength: 1.5}}}.BindCoverage(NegBinCoverage{Mean: 8, Dispersion: 2.5}),
			clusters: 40, refLen: 110, seed: 37,
			hash: goldenHashGCBias,
		},
		{
			// Chimeric reads: every chimera, partner and splice draw comes
			// from the per-cluster RNG, so the case holds under any worker
			// count like the rest.
			name:     "chimera",
			channel:  goldenChimera(),
			coverage: FixedCoverage(6),
			clusters: 40, refLen: 110, seed: 41,
			hash: goldenHashChimera,
		},
		{
			// Homopolymer boost: a per-strand spatial product recompiled
			// for every read.
			name:     "homopolymer",
			channel:  goldenHomopolymer(),
			coverage: FixedCoverage(5),
			clusters: 40, refLen: 110, seed: 43,
			hash: goldenHashHomopolymer,
		},
		{
			// Chimeras spliced ahead of every strand stage, with the pool
			// stages bound over the coverage.
			name:     "chimera-pipeline",
			channel:  goldenChimeraPipeline(physical),
			coverage: physical.BindCoverage(NegBinCoverage{Mean: 8, Dispersion: 2.5}),
			clusters: 40, refLen: 110, seed: 47,
			hash: goldenHashChimeraPipeline,
		},
	}
}

// hashDataset folds every reference and read into one digest.
func hashDataset(ds *dataset.Dataset) string {
	h := sha256.New()
	for _, c := range ds.Clusters {
		h.Write([]byte(c.Ref))
		h.Write([]byte{'\n'})
		for _, r := range c.Reads {
			h.Write([]byte(r))
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// runGolden simulates one case and returns the dataset hash.
func runGolden(t *testing.T, gc goldenCase) string {
	t.Helper()
	refs := RandomReferences(gc.clusters, gc.refLen, gc.seed)
	sim := Simulator{Channel: gc.channel, Coverage: gc.coverage}
	ds := sim.Simulate(gc.name, refs, gc.seed)
	return hashDataset(ds)
}

// TestGoldenSeedDatasets pins Simulate output for every model tier.
// Run with GOLDEN_PRINT=1 to print current hashes instead of asserting.
func TestGoldenSeedDatasets(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			got := runGolden(t, gc)
			if os.Getenv("GOLDEN_PRINT") != "" {
				fmt.Printf("golden %-18s %s\n", gc.name, got)
				return
			}
			if got != gc.hash {
				t.Errorf("dataset hash = %s, want %s (channel sampling semantics changed!)", got, gc.hash)
			}
		})
	}
}

// TestGoldenSeedWorkerInvariance asserts the dataset is byte-identical
// under 1, 4 and 16 simulation workers: the work-stealing scheduler must
// not leak scheduling order into results.
func TestGoldenSeedWorkerInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 16} {
				runtime.GOMAXPROCS(workers)
				got := runGolden(t, gc)
				runtime.GOMAXPROCS(prev)
				if os.Getenv("GOLDEN_PRINT") != "" {
					continue
				}
				if got != gc.hash {
					t.Errorf("workers=%d: dataset hash = %s, want %s", workers, got, gc.hash)
				}
			}
		})
	}
}
