package main

import (
	"os"
	"path/filepath"
	"testing"
)

// preFixAllocRegressed replicates the alloc gate as it stood before
// allocRegressed was extracted: the fractional delta was only computed
// when the baseline was positive, so a zero-alloc baseline left it at 0
// and ANY growth — 0 -> 1000 included — sailed through the gate. Kept
// here as the executable statement of the bug the tests below pin.
func preFixAllocRegressed(baseline, current int64, tolerance float64) bool {
	allocDelta := 0.0
	if baseline > 0 {
		allocDelta = float64(current-baseline) / float64(baseline)
	}
	return allocDelta > tolerance && current-baseline > 8
}

// TestAllocRegressedZeroBaseline is the regression test for the blind
// spot: with a zero-alloc baseline, growth beyond the absolute grace must
// trip the gate. Run against preFixAllocRegressed, the first assertion
// fails — that logic passed 0 -> 1000.
func TestAllocRegressedZeroBaseline(t *testing.T) {
	if !allocRegressed(0, 1000, 0.15) {
		t.Fatal("0 -> 1000 allocs/op must regress: zero baseline may not disable the gate")
	}
	if !allocRegressed(0, allocGrace+1, 0.15) {
		t.Fatalf("0 -> %d allocs/op must regress (first count past the grace)", allocGrace+1)
	}
	if allocRegressed(0, allocGrace, 0.15) {
		t.Fatalf("0 -> %d allocs/op is within the absolute grace and must pass", allocGrace)
	}
	if allocRegressed(0, 0, 0.15) {
		t.Fatal("0 -> 0 allocs/op must pass")
	}
	// Document the pre-fix behaviour so the fixture itself stays honest:
	// the old logic was blind to exactly the case above.
	if preFixAllocRegressed(0, 1000, 0.15) {
		t.Fatal("fixture error: the pre-fix logic was expected to miss 0 -> 1000")
	}
}

// TestAllocRegressedPositiveBaseline checks the fractional gate and the
// absolute grace are unchanged for ordinary baselines.
func TestAllocRegressedPositiveBaseline(t *testing.T) {
	cases := []struct {
		baseline, current int64
		tolerance         float64
		want              bool
	}{
		{100, 100, 0.15, false},    // unchanged
		{100, 90, 0.15, false},     // improvement
		{100, 110, 0.15, false},    // +10% under a 15% tolerance
		{100, 130, 0.15, true},     // +30% and +30 absolute
		{10, 12, 0.15, false},      // +20% but within the 8-alloc grace
		{10, 19, 0.15, true},       // +90% and past the grace
		{1000, 1005, 0.001, false}, // +0.5% over a 0.1% tolerance but within grace
		{1000, 1200, 0.15, true},   // +20%
		{8275, 1208, 0.15, false},  // a large improvement
	}
	for _, c := range cases {
		if got := allocRegressed(c.baseline, c.current, c.tolerance); got != c.want {
			t.Errorf("allocRegressed(%d, %d, %g) = %v, want %v",
				c.baseline, c.current, c.tolerance, got, c.want)
		}
	}
}

// TestLoadBaselineReadsCommittedFile: the gate reads the committed
// BENCH_sim.json, and a file that is not an array of results fails.
func TestLoadBaselineReadsCommittedFile(t *testing.T) {
	list, err := loadBaseline("../../BENCH_sim.json")
	if err != nil || len(list) == 0 {
		t.Fatalf("committed baseline: %d results, %v", len(list), err)
	}
	bad := filepath.Join(t.TempDir(), "single.json")
	if err := os.WriteFile(bad, []byte(`{"name":"channel.simulate","ns_per_op":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(bad); err == nil {
		t.Error("single-object baseline accepted")
	}
}
