package channel_test

// External test package: these tests tear checkpoint journals with the
// faults injectors, and faults imports channel.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/durable"
	"dnastore/internal/faults"
	"dnastore/internal/rng"
)

// datasetBytes serialises a dataset for byte-identity comparison.
func datasetBytes(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testSimulator() channel.Simulator {
	return channel.Simulator{
		Channel:  channel.NewNaive("n", channel.EqualMix(0.02)),
		Coverage: channel.FixedCoverage(6),
	}
}

// TestCheckpointResumeByteIdentical is the crash drill at library level:
// cancel a run mid-flight, tear the journal's tail the way a crash would,
// resume, and demand byte-identical output to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	sim := testSimulator()
	refs := channel.RandomReferences(40, 60, 11)
	const seed = 42
	desc := sim.Describe()

	golden, err := sim.SimulateCtx(context.Background(), "drill", refs, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, golden)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := channel.OpenCheckpoint(path, "drill", refs, seed, desc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ckpt.OnCommit = func(commits int) {
		if commits >= 15 {
			cancel()
		}
	}
	_, err = sim.SimulateRange(ctx, "drill", refs, seed, 0, len(refs), ckpt)
	var simErr *channel.SimulationError
	if !errors.As(err, &simErr) || simErr.Canceled == nil {
		t.Fatalf("interrupted run: err = %v, want canceled SimulationError", err)
	}
	ckpt.Close()
	cancel()

	// A real crash can cut the last append anywhere; emulate it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, faults.TornWrite(data, rng.New(5)), 0o644); err != nil {
		t.Fatal(err)
	}

	ckpt2, err := channel.OpenCheckpoint(path, "drill", refs, seed, desc)
	if err != nil {
		t.Fatalf("reopening torn checkpoint: %v", err)
	}
	defer ckpt2.Close()
	if got := ckpt2.Completed(); got >= len(refs) {
		t.Fatalf("torn checkpoint claims %d/%d clusters complete", got, len(refs))
	}
	resumed, err := sim.SimulateRange(context.Background(), "drill", refs, seed, 0, len(refs), ckpt2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(datasetBytes(t, resumed), want) {
		t.Error("resumed dataset differs from uninterrupted run")
	}
}

// TestPipelineCheckpointResumeByteIdentical runs the same crash drill on
// the population-aware staged pipeline: the checkpoint must restore the
// per-cluster pool draws (PCR skew, breakage thinning) exactly, so the
// resumed tail is byte-identical to the uninterrupted run.
func TestPipelineCheckpointResumeByteIdentical(t *testing.T) {
	pipe := channel.NewPhysicalPipeline("ckpt-pipe", 0.059, 100)
	sim := channel.Simulator{
		Channel:  pipe,
		Coverage: pipe.BindCoverage(channel.NegBinCoverage{Mean: 6, Dispersion: 2}),
	}
	refs := channel.RandomReferences(40, 60, 13)
	const seed = 43
	desc := sim.Describe()

	golden, err := sim.SimulateCtx(context.Background(), "pipe-drill", refs, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := datasetBytes(t, golden)

	path := filepath.Join(t.TempDir(), "pipe.ckpt")
	ckpt, err := channel.OpenCheckpoint(path, "pipe-drill", refs, seed, desc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ckpt.OnCommit = func(commits int) {
		if commits >= 15 {
			cancel()
		}
	}
	_, err = sim.SimulateRange(ctx, "pipe-drill", refs, seed, 0, len(refs), ckpt)
	var simErr *channel.SimulationError
	if !errors.As(err, &simErr) || simErr.Canceled == nil {
		t.Fatalf("interrupted run: err = %v, want canceled SimulationError", err)
	}
	ckpt.Close()
	cancel()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, faults.TornWrite(data, rng.New(6)), 0o644); err != nil {
		t.Fatal(err)
	}

	ckpt2, err := channel.OpenCheckpoint(path, "pipe-drill", refs, seed, desc)
	if err != nil {
		t.Fatalf("reopening torn checkpoint: %v", err)
	}
	defer ckpt2.Close()
	resumed, err := sim.SimulateRange(context.Background(), "pipe-drill", refs, seed, 0, len(refs), ckpt2)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(datasetBytes(t, resumed), want) {
		t.Error("resumed pipeline dataset differs from uninterrupted run")
	}
}

// TestCheckpointTornInsideHeader: a crash during checkpoint creation can
// leave a file too short to even parse; OpenCheckpoint must start fresh
// rather than fail forever.
func TestCheckpointTornInsideHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte{'D', 'N', 'A'}, 0o644); err != nil {
		t.Fatal(err)
	}
	refs := channel.RandomReferences(4, 30, 3)
	ckpt, err := channel.OpenCheckpoint(path, "x", refs, 1, "d")
	if err != nil {
		t.Fatalf("truncated header not recreated: %v", err)
	}
	defer ckpt.Close()
	if ckpt.Completed() != 0 {
		t.Errorf("fresh checkpoint has %d clusters", ckpt.Completed())
	}
}

// TestCheckpointRejectsDifferentRun: resuming against the wrong seed,
// references or simulator must fail loudly, not blend two runs.
func TestCheckpointRejectsDifferentRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	refs := channel.RandomReferences(6, 40, 2)
	ckpt, err := channel.OpenCheckpoint(path, "a", refs, 5, "descA")
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Commit(0, refs[:1]); err != nil {
		t.Fatal(err)
	}
	ckpt.Close()

	for name, open := range map[string]func() (*channel.Checkpoint, error){
		"different seed": func() (*channel.Checkpoint, error) {
			return channel.OpenCheckpoint(path, "a", refs, 6, "descA")
		},
		"different refs": func() (*channel.Checkpoint, error) {
			return channel.OpenCheckpoint(path, "a", channel.RandomReferences(6, 40, 99), 5, "descA")
		},
		"different simulator": func() (*channel.Checkpoint, error) {
			return channel.OpenCheckpoint(path, "a", refs, 5, "descB")
		},
		"different name": func() (*channel.Checkpoint, error) {
			return channel.OpenCheckpoint(path, "b", refs, 5, "descA")
		},
	} {
		if c, err := open(); err == nil {
			c.Close()
			t.Errorf("%s: accepted", name)
		}
	}

	// And a non-checkpoint file must never be clobbered.
	other := filepath.Join(dir, "pool.json")
	if err := os.WriteFile(other, []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := channel.OpenCheckpoint(other, "a", refs, 5, "descA"); err == nil {
		c.Close()
		t.Error("JSON file accepted as checkpoint")
	}
	if got, _ := os.ReadFile(other); string(got) != `{"version":1}` {
		t.Error("non-checkpoint file was overwritten")
	}
}

// TestCheckpointRefusesPoolContainer: a pool container at the checkpoint
// path is refused before anything is written, so the pool keeps its
// footer and still loads.
func TestCheckpointRefusesPoolContainer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.dnac")
	err := durable.WriteContainerFile(path, durable.KindPool, durable.Options{Parity: durable.DefaultParity}, func(w *durable.Writer) error {
		return w.WriteFrame("pool.json", []byte(`{"version":1,"objects":[]}`))
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refs := channel.RandomReferences(4, 30, 3)
	if c, err := channel.OpenCheckpoint(path, "x", refs, 1, "d"); err == nil {
		c.Close()
		t.Fatal("pool container accepted as a checkpoint")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("pool container changed by the refused open: %d bytes, was %d (err %v)", len(got), len(want), err)
	}
	if _, err := durable.ReadContainerFile(path, durable.KindPool); err != nil {
		t.Errorf("pool unreadable after the refused open: %v", err)
	}
}

// TestCheckpointCommitIdempotent: double commits must not duplicate frames
// across reopen.
func TestCheckpointCommitIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	refs := channel.RandomReferences(3, 20, 7)
	ckpt, err := channel.OpenCheckpoint(path, "x", refs, 9, "d")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ckpt.Commit(1, refs[:2]); err != nil {
			t.Fatal(err)
		}
	}
	if ckpt.Completed() != 1 {
		t.Errorf("Completed() = %d, want 1", ckpt.Completed())
	}
	ckpt.Close()
	ckpt2, err := channel.OpenCheckpoint(path, "x", refs, 9, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	if ckpt2.Completed() != 1 {
		t.Errorf("reopened Completed() = %d, want 1", ckpt2.Completed())
	}
	if reads, ok := ckpt2.Done(1); !ok || len(reads) != 2 {
		t.Errorf("Done(1) = %v, %v", reads, ok)
	}
}
