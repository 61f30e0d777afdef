package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnastore/internal/codec"
	"dnastore/internal/durable"
	"dnastore/internal/faults"
	"dnastore/internal/rng"
)

// filePool builds a small pool with two stored objects.
func filePool(t *testing.T) *Pool {
	t.Helper()
	p := New(Options{
		Archive: codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6},
		Seed:    33,
	})
	for k, v := range map[string][]byte{
		"a": bytes.Repeat([]byte("alpha "), 10),
		"b": bytes.Repeat([]byte("beta "), 12),
	} {
		if err := p.Store(k, v); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPoolFileRoundTrip(t *testing.T) {
	p := filePool(t)
	path := filepath.Join(t.TempDir(), "pool.dnac")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, legacy, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if legacy {
		t.Error("container load reported legacy")
	}
	if strings.Join(loaded.Keys(), ",") != strings.Join(p.Keys(), ",") {
		t.Errorf("keys changed: %v vs %v", loaded.Keys(), p.Keys())
	}
	if loaded.NumStrands() != p.NumStrands() {
		t.Errorf("strand count changed")
	}
}

func TestPoolFileLegacyJSON(t *testing.T) {
	p := filePool(t)
	path := filepath.Join(t.TempDir(), "pool.json")
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, legacy, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !legacy {
		t.Error("bare JSON not reported as legacy")
	}
	if loaded.NumStrands() != p.NumStrands() {
		t.Error("legacy load lost strands")
	}
}

func TestPoolFileSurvivesBitRot(t *testing.T) {
	p := filePool(t)
	path := filepath.Join(t.TempDir(), "pool.dnac")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rot a few bits inside the frame body, clear of the headers, spread
	// thinly enough to stay within the per-codeword parity budget.
	bodyStart := 12 + 2 + len("pool.json") + 8
	rotted := faults.BitRotRange(data, bodyStart, len(data)-20, 6, rng.New(4))
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, legacy, err := LoadFile(path)
	if err != nil {
		t.Fatalf("bit-rotted pool unloadable: %v", err)
	}
	if legacy {
		t.Error("rotted container misread as legacy")
	}
	if loaded.NumStrands() != p.NumStrands() {
		t.Error("repair lost strands")
	}

	// Scrub sees the same damage and repairs the file in place.
	rep, err := durable.RepairFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Damaged() || !rep.Repairable() {
		t.Errorf("scrub verdict: %s", rep.Summary())
	}
	if rep2, _ := durable.ScrubFile(path); !rep2.Intact() {
		t.Errorf("post-repair: %s", rep2.Summary())
	}
}

func TestPoolFileDetectsTornWrite(t *testing.T) {
	p := filePool(t)
	path := filepath.Join(t.TempDir(), "pool.dnac")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the cut past the container magic so this reads as a torn
	// container, not a legacy file.
	torn := data[:4+rng.New(8).Intn(len(data)-4)]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(path); err == nil {
		t.Fatal("torn pool file loaded silently")
	}
}

// TestPoolFileRejectsOtherKind: a container of another kind is refused
// even when it holds a pool section, and the error names the file.
func TestPoolFileRejectsOtherKind(t *testing.T) {
	p := filePool(t)
	var snap bytes.Buffer
	if err := p.Save(&snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profile.dnac")
	if err := durable.WriteContainerFile(path, durable.KindProfile, durable.Options{Parity: durable.DefaultParity},
		func(w *durable.Writer) error { return w.WriteFrame(poolFrame, snap.Bytes()) }); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadFile(path)
	if err == nil {
		t.Fatal("profile container loaded as a pool")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "profile container") {
		t.Errorf("error = %q, want the path and the container kind", err)
	}
}
