package channel

import (
	"testing"

	"dnastore/internal/rng"
)

// Hot-path benchmarks for the compiled transmission plan. Run with
// -cpu=1,8 to see the lock-free win: the pre-plan implementation took two
// mutex acquisitions per Transmit, which serialises at high parallelism.

func BenchmarkTransmitNaive(b *testing.B) {
	m := NewNaive("bench", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02})
	benchTransmit(b, m)
}

func BenchmarkTransmitSecondOrderSpatial(b *testing.B) {
	benchTransmit(b, goldenModelSecondOrder())
}

// benchTransmit measures Transmit throughput with one RNG per goroutine,
// parallel across GOMAXPROCS — the shape of real SimulateRange traffic.
func benchTransmit(b *testing.B, ch Channel) {
	refs := RandomReferences(1, 110, 42)
	ref := refs[0]
	Transmit(ch, ref, rng.New(1)) // warm the plan cache outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(99)
		for pb.Next() {
			Transmit(ch, ref, r)
		}
	})
}

func BenchmarkAppendTransmitNaive(b *testing.B) {
	m := NewNaive("bench", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02})
	benchAppendTransmit(b, m)
}

func BenchmarkAppendTransmitSecondOrderSpatial(b *testing.B) {
	benchAppendTransmit(b, goldenModelSecondOrder())
}

func BenchmarkAppendTransmitDNASimulator(b *testing.B) {
	benchAppendTransmit(b, NewDNASimulator("bench", DefaultNanoporeDict()))
}

// BenchmarkAppendTransmitPhysicalPipeline is the staged channel the
// simulate benchmark runs: four stages, three of them intermediate, each
// handing its read to the next as base codes.
func BenchmarkAppendTransmitPhysicalPipeline(b *testing.B) {
	benchAppendTransmit(b, NewPhysicalPipeline("bench", 0.059, 10))
}

// benchAppendTransmit measures the arena fast path exactly as a
// simulation worker drives it: reference decoded once, output and batch
// buffers reused. These paths must report 0 allocs/op — CI asserts it
// through the dnabench zero-alloc workloads.
func benchAppendTransmit(b *testing.B, at AppendTransmitter) {
	ref := RandomReferences(1, 110, 42)[0]
	r := rng.New(99)
	var scr Scratch
	codes := scr.RefBases(ref)
	dst := at.AppendTransmit(nil, codes, r, &scr) // warm plan cache and buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = at.AppendTransmit(dst[:0], codes, r, &scr)
	}
}

// BenchmarkSimulateSecondOrderSpatial is the acceptance-gate workload: a
// full clustered simulation of the second-order + spatial model under
// heavy-tailed coverage. clusters/s = clusters · 1e9 / (ns/op).
func BenchmarkSimulateSecondOrderSpatial(b *testing.B) {
	const clusters = 400
	refs := RandomReferences(clusters, 110, 42)
	sim := Simulator{
		Channel:  goldenModelSecondOrder(),
		Coverage: NegBinCoverage{Mean: 10, Dispersion: 1.2},
	}
	sim.Simulate("bench", refs, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate("bench", refs, 42)
	}
	b.ReportMetric(float64(clusters)*float64(b.N)/b.Elapsed().Seconds(), "clusters/s")
}
