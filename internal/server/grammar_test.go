package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"testing"

	"dnastore/internal/channel"
)

// Pins for the channel grammar as the job spec exposes it: the Describe
// strings (checkpoint journal identity) and dataset bytes of specs that
// use the stages and faults fields together, and which strings each field
// accepts. Run with GOLDEN_PRINT=1 to print current values instead of
// asserting.

const pinFaults = "dropout=0.05,truncate=0.3:0.4,contam=0.1,zerocov=10:5"

// TestStagedFaultedSpecGolden pins a spec with both a stage pipeline and
// every fault directive, under 1 and 4 simulation workers.
func TestStagedFaultedSpecGolden(t *testing.T) {
	const (
		wantDescribe = "channel=dnasimd-staged+contam(0.100)+truncate(0.300:0.400) coverage=negbin(μ=8.0,k=2.5)+pool(pcr→storage)+dropout(0.050)+zerocov(10:5)"
		wantHash     = "8cb9cf9be926bfc3f5312bbed6be109c"
	)
	sp := SimulateSpec{NumRefs: 40, RefLen: 110, Seed: 53, Stages: drillStages, Faults: pinFaults,
		Coverage: 8, CoverageModel: "negbin"}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	ch, cov, err := sp.Simulator()
	if err != nil {
		t.Fatal(err)
	}
	sim := channel.Simulator{Channel: ch, Coverage: cov}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		got := pinHash(t, sim, &sp)
		runtime.GOMAXPROCS(prev)
		if os.Getenv("GOLDEN_PRINT") != "" {
			fmt.Printf("golden staged-faulted workers=%d %s\n%s\n", workers, got, sim.Describe())
			continue
		}
		if got != wantHash {
			t.Errorf("workers=%d: dataset hash = %s, want %s", workers, got, wantHash)
		}
	}
	if got := sim.Describe(); got != wantDescribe && os.Getenv("GOLDEN_PRINT") == "" {
		t.Errorf("Describe = %q, want %q", got, wantDescribe)
	}
}

// pinHash simulates sp on sim and hashes the written dataset.
func pinHash(t *testing.T, sim channel.Simulator, sp *SimulateSpec) string {
	t.Helper()
	ds := sim.Simulate("golden", sp.References(), sp.Seed)
	h := sha256.New()
	if err := ds.Write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestFaultDirectivesDescribePinned pins the Describe string of all four
// fault directives over the naive model.
func TestFaultDirectivesDescribePinned(t *testing.T) {
	const want = "channel=dnasimd+contam(0.100)+truncate(0.300:0.400) coverage=negbin(μ=8.0,k=2.5)+dropout(0.050)+zerocov(10:5)"
	sp := SimulateSpec{NumRefs: 4, RefLen: 40, Sub: 0.01, Faults: pinFaults, Coverage: 8, CoverageModel: "negbin"}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	ch, cov, err := sp.Simulator()
	if err != nil {
		t.Fatal(err)
	}
	if got := (channel.Simulator{Channel: ch, Coverage: cov}).Describe(); got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
}

// TestSpecFieldsAcceptReject: each grammar field accepts and rejects a
// fixed set of strings, and neither field takes the other's directives.
// The faults field is checked on both job kinds that carry it.
func TestSpecFieldsAcceptReject(t *testing.T) {
	stages := map[string]bool{
		"":                                  true,
		"synthesis=0.0118":                  true,
		"pcr=30:0.0001":                     true,
		"pcr=30:0.0001:0.02":                true,
		"aging=100:3e-05":                   true,
		"aging=100:3e-05:0.00133":           true,
		"sequencing=0.0413":                 true,
		"sequencing=0.0413:terminal-skew":   true,
		"naive=0.02:0.01:0.03":              true,
		drillStages:                         true,
		"synthesis=0.01,synthesis=0.02":     true,
		" synthesis=0.01 , naive=0:0:0 ":    true,
		"synthesis":                         false,
		"warp=0.1":                          false,
		"synthesis=NaN":                     false,
		"synthesis=-0.1":                    false,
		"synthesis=1.5":                     false,
		"pcr=30":                            false,
		"pcr=x:0.1":                         false,
		"pcr=-3:0.1":                        false,
		"pcr=30:0.1:0.2:0.3":                false,
		"aging=100":                         false,
		"aging=-1:0.1":                      false,
		"sequencing=0.04:sideways":          false,
		"naive=0.1:0.1":                     false,
		"synthesis=0.01,":                   false,
		"dropout=0.1":                       false,
		"synthesis=0.01,truncate=0.3":       false,
		"zerocov=10:5":                      false,
		"contam=0.02":                       false,
		"synthesis = 0.01":                  false,
		"sequencing=0.04:terminal-skew:0.1": false,
	}
	faults := map[string]bool{
		"":            true,
		"  ":          true,
		"dropout=0.1": true,
		pinFaults:     true,
		"zerocov=10:5,contam=0.02,dropout=0.1,truncate=0.3:0.5": true,
		"truncate=0.4":                      true,
		"truncate=0.5:0.99":                 true,
		"truncate=0:0.5":                    true,
		"truncate=1":                        true,
		"zerocov=0:1":                       true,
		"zerocov=1:9223372036854775807":     true,
		"dropout=0.1,dropout=0.2":           true,
		"dropout=0":                         true,
		"truncate=1e-300:0.5,contam=0x1p-3": true,
		"dropout":                           false,
		"dropout=1.5":                       false,
		"dropout=-0.1":                      false,
		"dropout=x":                         false,
		"dropout=NaN":                       false,
		"truncate=0.3:1.5":                  false,
		"truncate=0.5:nope":                 false,
		"truncate=0.3:":                     false,
		"truncate=0.3:0.5:0.2":              false,
		"zerocov=5":                         false,
		"zerocov=-1:3":                      false,
		"zerocov=2:0":                       false,
		"zerocov=a:3":                       false,
		"warp=0.5":                          false,
		",,,":                               false,
		" dropout = 0.5 ":                   false,
		"synthesis=0.01":                    false,
		"dropout=0.1,naive=0:0:0":           false,
	}
	for s, ok := range stages {
		sp := SimulateSpec{NumRefs: 4, RefLen: 40, Stages: s}
		if err := sp.Validate(); (err == nil) != ok {
			t.Errorf("stages %q: accepted=%v, want %v (err %v)", s, err == nil, ok, err)
		}
	}
	for s, ok := range faults {
		sp := SimulateSpec{NumRefs: 4, RefLen: 40, Faults: s}
		if err := sp.Validate(); (err == nil) != ok {
			t.Errorf("simulate faults %q: accepted=%v, want %v (err %v)", s, err == nil, ok, err)
		}
		rs := RetrieveSpec{PoolPath: "pool.json", Key: "k", Faults: s}
		if err := rs.Validate(); (err == nil) != ok {
			t.Errorf("retrieve faults %q: accepted=%v, want %v (err %v)", s, err == nil, ok, err)
		}
	}
}
