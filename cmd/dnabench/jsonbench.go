package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// The -json / -compare benchmark modes: machine-readable measurements of
// the simulate hot path — channel.Simulator.Simulate over fixed synthetic
// workloads — written as one JSON document so CI can archive BENCH_sim.json
// per commit, and diffed against a committed baseline so throughput
// regressions fail the build instead of landing silently.
// testing.Benchmark gives the same adaptive iteration count and allocation
// accounting as `go test -bench` without needing the test harness.

// benchResult is one entry of the BENCH_sim.json schema. Field names are
// stable: CI artifacts are compared across commits.
type benchResult struct {
	// Name identifies the measured path.
	Name string `json:"name"`
	// Clusters, RefLen and Coverage pin the workload shape.
	Clusters int `json:"clusters"`
	RefLen   int `json:"ref_len"`
	Coverage int `json:"coverage"`
	// Iterations is the adaptive b.N testing.Benchmark settled on.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per full simulation (all clusters).
	NsPerOp int64 `json:"ns_per_op"`
	// ClustersPerSec is the simulate throughput CI tracks.
	ClustersPerSec float64 `json:"clusters_per_sec"`
	// AllocsPerOp and BytesPerOp track allocation behaviour.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// GoVersion and GOMAXPROCS contextualise cross-machine numbers.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// benchWorkload is one named hot-path configuration. Most workloads
// measure Simulator.Simulate end to end via the simulate factory; a
// workload may instead supply run to measure a narrower path directly
// (the packed transmit kernels). zeroAlloc marks workloads whose steady
// state must not allocate at all — the measurement itself fails, in both
// -json and -compare modes, if allocs/op is nonzero.
type benchWorkload struct {
	name      string
	clusters  int
	refLen    int
	coverage  int
	simulate  func() channel.Simulator
	run       func(b *testing.B, seed uint64)
	zeroAlloc bool
}

// secondOrderBenchModel builds the paper's full "+ 2nd-order Errors" tier:
// spatial skew plus specific errors with their own histograms — the
// workload whose per-position second-order scans and (formerly) mutex
// traffic dominate transmit cost.
func secondOrderBenchModel() *channel.Model {
	m := channel.NewNaive("bench-2so", channel.NanoporeMix(0.059))
	m.LongDel = channel.PaperLongDeletion()
	m.InsDist = [dna.NumBases]float64{0.3, 0.2, 0.2, 0.3}
	tail := make([]float64, 300)
	for i := range tail {
		tail[i] = 1
	}
	tail[299] = 40
	return m.WithSpatial(dist.NanoporeSkew()).WithSecondOrder([]channel.SecondOrderError{
		{Kind: align.Del, From: dna.G, Rate: 0.011, Spatial: []float64{1, 1, 1, 1, 8}},
		{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 0.006},
		{Kind: align.Ins, To: dna.T, Rate: 0.002, Spatial: tail},
	})
}

// benchWorkloads returns the measured configurations. "channel.simulate"
// keeps its original shape for cross-commit continuity; the second entry
// is the second-order + spatial acceptance workload under heavy-tailed
// coverage, which exercises the compiled plan and the work-stealing
// scheduler together.
func benchWorkloads() []benchWorkload {
	return []benchWorkload{
		{
			name: "channel.simulate", clusters: 200, refLen: 110, coverage: 8,
			simulate: func() channel.Simulator {
				return channel.Simulator{
					Channel:  channel.NewNaive("bench", channel.Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
					Coverage: channel.FixedCoverage(8),
				}
			},
		},
		{
			name: "channel.simulate/secondorder-spatial", clusters: 400, refLen: 110, coverage: 10,
			simulate: func() channel.Simulator {
				return channel.Simulator{
					Channel:  secondOrderBenchModel(),
					Coverage: channel.NegBinCoverage{Mean: 10, Dispersion: 1.2},
				}
			},
		},
		// The packed transmit kernels, measured read by read through the
		// AppendTransmit arena path — the default path every simulation
		// worker takes. These must run allocation-free: a nonzero allocs/op
		// means a lost pooling or escape-analysis optimisation, and the
		// zeroAlloc flag fails the measurement outright rather than relying
		// on the baseline diff to notice.
		{
			name: "channel.transmit/secondorder-append", refLen: 110, coverage: 1, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				benchAppendTransmit(b, secondOrderBenchModel(), 110, seed)
			},
		},
		{
			name: "channel.transmit/dnasimulator-append", refLen: 110, coverage: 1, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				benchAppendTransmit(b, channel.NewDNASimulator("bench", channel.DefaultNanoporeDict()), 110, seed)
			},
		},
		{
			// The full four-stage pipeline through one AppendTransmit call:
			// every intermediate stage bounces through the Scratch
			// double-buffer, so this is the regression canary for the
			// pipeline staying off the allocator end to end.
			name: "channel.transmit/pipeline-append", refLen: 110, coverage: 1, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				benchAppendTransmit(b, channel.NewStoragePipeline("bench-pipe", 0.059, 10), 110, seed)
			},
		},
	}
}

// benchAppendTransmit measures one channel's AppendTransmit steady state:
// reference decoded once, output buffer and RNG batch reused from a
// per-worker Scratch, exactly as simulation workers drive it.
func benchAppendTransmit(b *testing.B, at channel.AppendTransmitter, refLen int, seed uint64) {
	ref := channel.RandomReferences(1, refLen, seed)[0]
	r := rng.New(seed)
	var scr channel.Scratch
	codes := scr.RefBases(ref)
	// Warm outside the timer: plan compilation and output-buffer growth are
	// one-time costs, not steady state.
	dst := at.AppendTransmit(nil, codes, r, &scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = at.AppendTransmit(dst[:0], codes, r, &scr)
	}
}

// measure runs one workload under testing.Benchmark.
func measure(w benchWorkload, seed uint64) (benchResult, error) {
	var res testing.BenchmarkResult
	if w.run != nil {
		res = testing.Benchmark(func(b *testing.B) { w.run(b, seed) })
	} else {
		refs := channel.RandomReferences(w.clusters, w.refLen, seed)
		sim := w.simulate()
		// Warm once outside the measurement so one-time setup (page faults,
		// plan compilation) doesn't pollute the first iteration.
		sim.Simulate("bench", refs, seed)

		res = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.Simulate("bench", refs, seed)
			}
		})
	}
	if res.N == 0 {
		return benchResult{}, fmt.Errorf("benchmark %s did not run", w.name)
	}
	if w.zeroAlloc && res.AllocsPerOp() != 0 {
		return benchResult{}, fmt.Errorf("%s: %d allocs/op on a path that must not allocate", w.name, res.AllocsPerOp())
	}
	return benchResult{
		Name:           w.name,
		Clusters:       w.clusters,
		RefLen:         w.refLen,
		Coverage:       w.coverage,
		Iterations:     res.N,
		NsPerOp:        res.NsPerOp(),
		ClustersPerSec: float64(w.clusters) / (time.Duration(res.NsPerOp()) * time.Nanosecond).Seconds(),
		AllocsPerOp:    res.AllocsPerOp(),
		BytesPerOp:     res.AllocedBytesPerOp(),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}, nil
}

// measureAll runs every workload.
func measureAll(seed uint64) ([]benchResult, error) {
	var out []benchResult
	for _, w := range benchWorkloads() {
		r, err := measure(w, seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "dnabench: %s: %d iterations, %.0f clusters/s, %d allocs/op\n",
			r.Name, r.Iterations, r.ClustersPerSec, r.AllocsPerOp)
		out = append(out, r)
	}
	return out, nil
}

// runJSONBench measures the hot paths and writes BENCH_sim.json to path.
func runJSONBench(path string, seed uint64) error {
	results, err := measureAll(seed)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dnabench: wrote %d measurements -> %s\n", len(results), path)
	return nil
}

// loadBaseline reads a BENCH_sim.json: an array of results.
func loadBaseline(path string) ([]benchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []benchResult
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("%s: not a benchmark baseline (array of results): %w", path, err)
	}
	return list, nil
}

// allocGrace is the absolute allocs/op slack the gate always allows: ±a
// few allocs on a small-count path is measurement jitter (pool misses,
// map growth timing), not a regression.
const allocGrace = 8

// allocRegressed reports whether current allocs/op regresses against
// baseline under the fractional tolerance. A positive baseline gates on
// the fraction, with allocGrace of absolute slack so ±1 alloc on a
// 10-alloc path doesn't flake the build. A zero baseline cannot express a
// fraction — and a zero-alloc path starting to allocate is exactly the
// regression the gate exists to catch, so dividing by it must not
// silently disable the gate — so it falls back to absolute growth beyond
// allocGrace.
func allocRegressed(baseline, current int64, tolerance float64) bool {
	if baseline <= 0 {
		return current > allocGrace
	}
	return float64(current-baseline)/float64(baseline) > tolerance && current-baseline > allocGrace
}

// compareBench measures every workload, diffs ns/op and allocs/op against
// the baseline at path, and renders a report. It returns an error listing
// every workload whose ns/op regressed by more than tolerance (fractional,
// e.g. 0.15 = +15%), or whose allocs/op regressed per allocRegressed —
// allocation count is deterministic enough to gate tightly, and a
// regression there is usually a lost pooling or escape-analysis
// optimisation that ns/op noise can mask. Baseline entries with no
// current counterpart — and new workloads absent from the baseline — are
// reported but never fail the gate, so workloads can be added or retired
// without breaking the build.
func compareBench(baselinePath, reportPath string, tolerance float64, seed uint64) error {
	baseline, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	current, err := measureAll(seed)
	if err != nil {
		return err
	}
	base := make(map[string]benchResult, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}

	var report strings.Builder
	fmt.Fprintf(&report, "benchmark comparison vs %s (gate: >%+.0f%% ns/op or allocs/op)\n\n", baselinePath, tolerance*100)
	fmt.Fprintf(&report, "%-40s %14s %14s %9s %12s %12s %9s\n",
		"workload", "baseline ns/op", "current ns/op", "delta", "clusters/s", "allocs/op", "Δallocs")
	var regressions []string
	for _, c := range current {
		b, ok := base[c.Name]
		if !ok {
			fmt.Fprintf(&report, "%-40s %14s %14d %9s %12.0f %12d %9s  (new workload, not gated)\n",
				c.Name, "-", c.NsPerOp, "-", c.ClustersPerSec, c.AllocsPerOp, "-")
			continue
		}
		delta := float64(c.NsPerOp-b.NsPerOp) / float64(b.NsPerOp)
		verdict := ""
		if delta > tolerance {
			verdict = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %d -> %d ns/op (%+.1f%%)", c.Name, b.NsPerOp, c.NsPerOp, delta*100))
		}
		// Render the alloc delta fractionally when the baseline can express
		// one, absolutely when it is zero (0 -> N is an infinite fraction).
		allocCol := ""
		if b.AllocsPerOp > 0 {
			allocDelta := float64(c.AllocsPerOp-b.AllocsPerOp) / float64(b.AllocsPerOp)
			allocCol = fmt.Sprintf("%+8.1f%%", allocDelta*100)
		} else {
			allocCol = fmt.Sprintf("%+9d", c.AllocsPerOp-b.AllocsPerOp)
		}
		if allocRegressed(b.AllocsPerOp, c.AllocsPerOp, tolerance) {
			verdict = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %d -> %d allocs/op (%s)", c.Name, b.AllocsPerOp, c.AllocsPerOp, strings.TrimSpace(allocCol)))
		}
		fmt.Fprintf(&report, "%-40s %14d %14d %+8.1f%% %12.0f %12d %s%s\n",
			c.Name, b.NsPerOp, c.NsPerOp, delta*100, c.ClustersPerSec, c.AllocsPerOp, allocCol, verdict)
		delete(base, c.Name)
	}
	for name := range base {
		fmt.Fprintf(&report, "%-40s  (baseline entry with no current measurement)\n", name)
	}

	if reportPath != "" {
		if err := os.WriteFile(reportPath, []byte(report.String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprint(os.Stderr, report.String())
	if len(regressions) > 0 {
		return fmt.Errorf("bench regression gate failed:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}
