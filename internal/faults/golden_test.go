package faults

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
)

// Golden-seed hashes for faulted datasets. The read injectors draw from
// the per-cluster RNG around their base channel's draws, so these pin the
// draw order of truncation, contamination, dropout and the dead region
// over a Model and over the staged pipeline, and of chimeras over a
// faulted Model. They were captured while the injectors still transmitted
// through the Strand API, before they moved onto the append kernel. Run
// with GOLDEN_PRINT=1 to print current hashes instead of asserting.
const goldenSpec = "dropout=0.05,truncate=0.3:0.4,contam=0.1,zerocov=10:5"

// faultGoldenCase is one pinned faulted workload.
type faultGoldenCase struct {
	name string
	sim  func(refs []dna.Strand) channel.Simulator
	hash string
}

// faultGoldenModel is the base Model the faulted cases wrap.
func faultGoldenModel() *channel.Model {
	return channel.NewNaive("golden-faults", channel.NanoporeMix(0.04)).WithSpatial(dist.NanoporeSkew())
}

func faultGoldenCases(t *testing.T) []faultGoldenCase {
	spec, err := channel.ParseFaults(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	negbin := channel.NegBinCoverage{Mean: 8, Dispersion: 2.5}
	return []faultGoldenCase{
		{
			name: "spec-model",
			sim: func([]dna.Strand) channel.Simulator {
				ch, cov := spec.Bind(faultGoldenModel(), negbin)
				return channel.Simulator{Channel: ch, Coverage: cov}
			},
			hash: "ba8c955bbaaba0df73087d2bad1c1b54",
		},
		{
			name: "spec-physical",
			sim: func([]dna.Strand) channel.Simulator {
				physical := channel.NewPhysicalPipeline("golden-physical", 0.059, 100)
				ch, cov := spec.Bind(physical, negbin)
				return channel.Simulator{Channel: ch, Coverage: cov}
			},
			hash: "a5f014c2f708de2088b6f00ddf261c3b",
		},
		{
			name: "chimera-spec-model",
			sim: func(refs []dna.Strand) channel.Simulator {
				ch, cov := spec.Bind(faultGoldenModel(), negbin)
				chim, err := channel.NewChimera(ch, refs, 0.15)
				if err != nil {
					t.Fatal(err)
				}
				return channel.Simulator{Channel: chim, Coverage: cov}
			},
			hash: "0c77dd56dab40dacb1ffa90b25588821",
		},
	}
}

// TestFaultGoldenDatasets pins faulted Simulate output under 1 and 4
// simulation workers.
func TestFaultGoldenDatasets(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	refs := channel.RandomReferences(40, 110, 53)
	for _, gc := range faultGoldenCases(t) {
		t.Run(gc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				runtime.GOMAXPROCS(workers)
				ds := gc.sim(refs).Simulate(gc.name, refs, 53)
				runtime.GOMAXPROCS(prev)
				var buf bytes.Buffer
				if err := ds.Write(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				got := hex.EncodeToString(sum[:16])
				if os.Getenv("GOLDEN_PRINT") != "" {
					fmt.Printf("golden %-20s workers=%d %s\n", gc.name, workers, got)
					continue
				}
				if got != gc.hash {
					t.Errorf("workers=%d: dataset hash = %s, want %s", workers, got, gc.hash)
				}
			}
		})
	}
}
