package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func writeTestJournal(t *testing.T, path string, parity int, frames int) {
	t.Helper()
	j, err := CreateJournal(path, KindLedger, Options{Parity: parity})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := j.Append("entry", []byte{byte(i), 0xAA, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubJournalHealthy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	writeTestJournal(t, path, 8, 3)

	rep, err := ScrubFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Intact() {
		t.Fatalf("healthy journal not intact: %s", rep.Summary())
	}
	if len(rep.Sections) != 3 || rep.Kind != KindLedger || rep.Parity != 8 {
		t.Fatalf("report: kind %s parity %d sections %d, want ledger/8/3", rep.Kind, rep.Parity, len(rep.Sections))
	}
	// The kind, not the file name, makes it a journal: a copy without the
	// .wal suffix scrubs just as clean.
	plain := filepath.Join(t.TempDir(), "job")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(plain, data, 0o644); err != nil {
		t.Fatal(err)
	}
	gen, err := ScrubFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Truncated || !gen.Intact() {
		t.Fatalf("scrub of a renamed journal: %s, want intact", gen.Summary())
	}
}

func TestScrubJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	writeTestJournal(t, path, 0, 2)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-frame: the tail becomes the torn write OpenJournal drops.
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	rep, err := ScrubFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intact() || !rep.Truncated {
		t.Fatalf("torn tail not reported: %s", rep.Summary())
	}
	if len(rep.Sections) != 1 || rep.Sections[0].Status != SectionOK {
		t.Fatalf("want 1 clean section before the tear, got %d", len(rep.Sections))
	}

	// And OpenJournal agrees: one intact frame, tail discarded, appendable.
	j, frames, err := OpenJournal(path, KindLedger)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("OpenJournal recovered %d frames, want 1", len(frames))
	}
	if err := j.Append("entry", []byte("again")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	rep, err = ScrubFile(path)
	if err != nil || !rep.Intact() {
		t.Fatalf("journal not clean after truncate+append: %s err=%v", rep.Summary(), err)
	}
}

func TestScrubJournalCorruptFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	writeTestJournal(t, path, 0, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the middle frame (no parity → unrepairable).
	// Frame layout: 'F' | len | "entry" | rawLen u32 | hcrc u32 | 3 bytes | pcrc u4.
	frameLen := 1 + 1 + len("entry") + 4 + 4 + 3 + 4
	off := headerSize + frameLen + (frameLen - 5) // middle frame, payload byte
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := ScrubFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intact() {
		t.Fatalf("corrupt journal reported intact: %s", rep.Summary())
	}
	corrupt := 0
	for _, s := range rep.Sections {
		if s.Status == SectionCorrupt {
			corrupt++
		}
	}
	if corrupt == 0 {
		t.Fatalf("no corrupt section reported: %s", rep.Summary())
	}
}

func TestScrubJournalRepairsWithinParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	writeTestJournal(t, path, 8, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One flipped payload byte is within an 8-symbol parity budget.
	data[len(data)-6] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := ScrubFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.ScanErr != nil || len(rep.Sections) != 1 {
		t.Fatalf("repairable journal misread: %s", rep.Summary())
	}
	if rep.Sections[0].Status != SectionRepaired || rep.Sections[0].Corrected == 0 {
		t.Fatalf("section not repaired: status %s corrected %d", rep.Sections[0].Status, rep.Sections[0].Corrected)
	}
}
