package dnastore

// One benchmark per paper table and figure (see DESIGN.md §4). Each
// benchmark regenerates its artifact end-to-end — dataset generation,
// calibration where needed, reconstruction, metrics — at a reduced scale
// chosen so a full `go test -bench=.` run finishes in minutes while
// preserving every qualitative result. cmd/dnabench runs the same
// experiments at the paper's full scale.

import (
	"sync"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/experiments"
	"dnastore/internal/profile"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
	"dnastore/internal/wetlab"
)

// benchRNG returns a fresh deterministic generator for micro-benchmarks.
func benchRNG() *rng.RNG { return rng.New(99) }

// benchScale keeps benchmark iterations affordable.
var benchScale = experiments.Scale{Clusters: 200, Seed: 1}

var (
	benchWBOnce sync.Once
	benchWB     *experiments.Workbench
)

// workbench builds the shared wetlab+calibration state once per process.
func workbench(b *testing.B) *experiments.Workbench {
	b.Helper()
	benchWBOnce.Do(func() {
		wb, err := experiments.NewWorkbench(benchScale)
		if err != nil {
			panic(err)
		}
		benchWB = wb
	})
	return benchWB
}

func runEntry(b *testing.B, id string) {
	wb := workbench(b)
	entry, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := entry.Run(wb, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkTable11(b *testing.B)  { runEntry(b, "table1.1") }
func BenchmarkTable21(b *testing.B)  { runEntry(b, "table2.1") }
func BenchmarkTable22(b *testing.B)  { runEntry(b, "table2.2") }
func BenchmarkTable31(b *testing.B)  { runEntry(b, "table3.1") }
func BenchmarkTable32(b *testing.B)  { runEntry(b, "table3.2") }
func BenchmarkFigure32(b *testing.B) { runEntry(b, "fig3.2") }
func BenchmarkFigure33(b *testing.B) { runEntry(b, "fig3.3") }
func BenchmarkFigure34(b *testing.B) { runEntry(b, "fig3.4") }
func BenchmarkFigure35(b *testing.B) { runEntry(b, "fig3.5") }
func BenchmarkFigure36(b *testing.B) { runEntry(b, "fig3.6") }
func BenchmarkFigure37(b *testing.B) { runEntry(b, "fig3.7") }
func BenchmarkFigure38(b *testing.B) { runEntry(b, "fig3.8") }
func BenchmarkFigure39(b *testing.B) { runEntry(b, "fig3.9") }
func BenchmarkFigure310(b *testing.B) {
	runEntry(b, "fig3.10")
}
func BenchmarkAppendixC(b *testing.B)           { runEntry(b, "figC") }
func BenchmarkExtTwoWayIterative(b *testing.B)  { runEntry(b, "ext4.3") }
func BenchmarkExtStatDistance(b *testing.B)     { runEntry(b, "ext.metrics") }
func BenchmarkExtAging(b *testing.B)            { runEntry(b, "ext.aging") }
func BenchmarkExtClustering(b *testing.B)       { runEntry(b, "ext.clustering") }
func BenchmarkExtErrorScale(b *testing.B)       { runEntry(b, "ext.errorscale") }
func BenchmarkExtWeighted(b *testing.B)         { runEntry(b, "ext.weighted") }
func BenchmarkExtHoldout(b *testing.B)          { runEntry(b, "ext.holdout") }
func BenchmarkExtChimera(b *testing.B)          { runEntry(b, "ext.chimera") }
func BenchmarkAblationWindow(b *testing.B)      { runEntry(b, "abl.window") }
func BenchmarkAblationSplice(b *testing.B)      { runEntry(b, "abl.splice") }
func BenchmarkAblationScript(b *testing.B)      { runEntry(b, "abl.script") }
func BenchmarkAblationCensus(b *testing.B)      { runEntry(b, "abl.census") }
func BenchmarkAblationAffine(b *testing.B)      { runEntry(b, "abl.affine") }
func BenchmarkAblationHomopolymer(b *testing.B) { runEntry(b, "abl.homopolymer") }
func BenchmarkAblationCoverage(b *testing.B)    { runEntry(b, "abl.coverage") }
func BenchmarkAblationAlgorithms(b *testing.B)  { runEntry(b, "abl.algorithms") }

// Micro-benchmarks for the hot paths behind the experiments.

func BenchmarkWetlabTransmit(b *testing.B) {
	ch := wetlab.GroundTruthChannel(0.059)
	refs := channel.RandomReferences(1, 110, 1)
	r := benchRNG()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		channel.Transmit(ch, refs[0], r)
	}
}

func BenchmarkProfile1kReads(b *testing.B) {
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters = 40 // ≈1k reads
	ds := wetlab.MustGenerate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Profile(ds, profile.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructIterative(b *testing.B) {
	wb := workbench(b)
	ds, err := wb.FixedCoverage(6, 10)
	if err != nil {
		b.Fatal(err)
	}
	alg := recon.NewIterative()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recon.ReconstructDataset(alg, ds)
	}
}

func BenchmarkReconstructBMA(b *testing.B) {
	wb := workbench(b)
	ds, err := wb.FixedCoverage(6, 10)
	if err != nil {
		b.Fatal(err)
	}
	alg := recon.NewBMA()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recon.ReconstructDataset(alg, ds)
	}
}
