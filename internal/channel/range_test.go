package channel

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"dnastore/internal/dataset"
	"dnastore/internal/dna"
)

// writeBytes renders a dataset through the canonical text writer.
func writeBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatalf("write dataset: %v", err)
	}
	return buf.Bytes()
}

// TestSimulateRangeConcatIdentity is the merge-safety contract of
// cluster-range sharding: simulating [0,N) in one run and as several
// cluster-range shards must serialize to the same bytes once the shard
// outputs are concatenated in range order.
func TestSimulateRangeConcatIdentity(t *testing.T) {
	const seed = 42
	refs := RandomReferences(97, 60, seed^0xbeef)
	checkRangeConcat(t, Simulator{
		Channel:  NewNaive("rangetest", Rates{Sub: 0.02, Ins: 0.01, Del: 0.03}),
		Coverage: NegBinCoverage{Mean: 5, Dispersion: 2.5},
	}, refs, seed)
}

// TestChimeraRangeConcatIdentity: chimera draws come from the per-cluster
// RNG, so chimeric datasets shard like any other.
func TestChimeraRangeConcatIdentity(t *testing.T) {
	const seed = 43
	refs := RandomReferences(97, 60, seed^0xbeef)
	checkRangeConcat(t, chimeraSim(t, NewNaive("rangetest", Rates{Sub: 0.02, Ins: 0.01, Del: 0.03}),
		refs, 0.2, NegBinCoverage{Mean: 5, Dispersion: 2.5}), refs, seed)
}

// checkRangeConcat asserts that uneven cluster-range shards of sim,
// concatenated in range order, serialize to the bytes of one full run.
func checkRangeConcat(t *testing.T, sim Simulator, refs []dna.Strand, seed uint64) {
	t.Helper()
	full, err := sim.SimulateCtx(context.Background(), "simulated", refs, seed)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	want := writeBytes(t, full)

	// Uneven shards on purpose: the last one is shorter than the rest.
	var got []byte
	for first := 0; first < len(refs); first += 40 {
		count := 40
		if first+count > len(refs) {
			count = len(refs) - first
		}
		shard, err := sim.SimulateRange(context.Background(), "simulated", refs, seed, first, count, nil)
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", first, first+count, err)
		}
		if len(shard.Clusters) != count {
			t.Fatalf("shard [%d,%d): %d clusters, want %d", first, first+count, len(shard.Clusters), count)
		}
		got = append(got, writeBytes(t, shard)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("concatenated shard output differs from full run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSimulateRangeCheckpointResume drills shard handoff: a shard journal
// written by one interrupted run is resumed by a second run, and the shard
// output stays byte-identical to an uninterrupted range run.
func TestSimulateRangeCheckpointResume(t *testing.T) {
	const seed = 7
	refs := RandomReferences(64, 50, seed^0x5a5a)
	checkRangeResume(t, Simulator{
		Channel:  NewNaive("rangetest", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
		Coverage: FixedCoverage(4),
	}, refs, seed)
}

// TestChimeraCheckpointResume: a resumed chimeric shard is byte-identical
// to an uninterrupted one — no chimera depends on an earlier cluster.
func TestChimeraCheckpointResume(t *testing.T) {
	const seed = 8
	refs := RandomReferences(64, 50, seed^0x5a5a)
	checkRangeResume(t, chimeraSim(t, NewNaive("rangetest", Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
		refs, 0.2, FixedCoverage(4)), refs, seed)
}

// checkRangeResume interrupts a checkpointed range run of sim, resumes it
// from the journal and compares the result with an uninterrupted run.
func checkRangeResume(t *testing.T, sim Simulator, refs []dna.Strand, seed uint64) {
	t.Helper()
	const first, count = 20, 30
	want, err := sim.SimulateRange(context.Background(), "simulated", refs, seed, first, count, nil)
	if err != nil {
		t.Fatalf("reference range run: %v", err)
	}

	path := filepath.Join(t.TempDir(), "shard.ckpt")
	desc := sim.Describe()

	// First run: cancel after a handful of commits.
	ckpt, err := OpenCheckpoint(path, "simulated", refs, seed, desc)
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ckpt.OnCommit = func(commits int) {
		if commits >= 5 {
			cancel()
		}
	}
	_, err = sim.SimulateRange(ctx, "simulated", refs, seed, first, count, ckpt)
	if err == nil {
		t.Fatal("interrupted run unexpectedly completed clean")
	}
	journaled := ckpt.Completed()
	if journaled == 0 {
		t.Fatal("no clusters journaled before cancel")
	}
	ckpt.Close()
	cancel()

	// Second run: resume from the journal (handoff to a "different node"
	// holding the same spec and shard range).
	ckpt2, err := OpenCheckpoint(path, "simulated", refs, seed, desc)
	if err != nil {
		t.Fatalf("reopen checkpoint: %v", err)
	}
	defer ckpt2.Close()
	if ckpt2.Completed() < journaled {
		t.Fatalf("resume lost progress: %d < %d committed clusters", ckpt2.Completed(), journaled)
	}
	got, err := sim.SimulateRange(context.Background(), "simulated", refs, seed, first, count, ckpt2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
		t.Fatal("resumed shard output differs from uninterrupted range run")
	}
}

// TestSimulateRangeBounds rejects out-of-range shards instead of clamping
// them: a clamped shard would silently merge into a hole.
func TestSimulateRangeBounds(t *testing.T) {
	refs := RandomReferences(10, 20, 1)
	sim := Simulator{Channel: NewNaive("rangetest", Rates{Sub: 0.01}), Coverage: FixedCoverage(2)}
	for _, tc := range [][2]int{{-1, 5}, {0, -1}, {5, 6}, {11, 0}} {
		if _, err := sim.SimulateRange(context.Background(), "x", refs, 1, tc[0], tc[1], nil); err == nil {
			t.Errorf("range [%d,+%d): no error", tc[0], tc[1])
		}
	}
}
