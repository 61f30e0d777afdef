package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadContainer hardens the one frame reader against arbitrary bytes:
// malformed headers, forged lengths, truncated frames and random mutations
// of valid containers and journals must never panic or over-allocate. For
// a journal kind it also holds OpenJournal to Scrub: the frames OpenJournal
// keeps are the sections Scrub lists before the first corrupt one, and the
// file it truncates scrubs with no tear and no corrupt section.
func FuzzReadContainer(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, KindPool, Options{Parity: 8})
	if err != nil {
		f.Fatal(err)
	}
	w.WriteFrame("pool.json", []byte(`{"version":1,"objects":[]}`))
	w.WriteFrame("extra", bytes.Repeat([]byte{0x5A}, 300))
	w.Close()
	valid := buf.Bytes()

	// A journal is a writer that is never closed.
	var jbuf bytes.Buffer
	jw, err := NewWriter(&jbuf, KindLedger, Options{Parity: 8})
	if err != nil {
		f.Fatal(err)
	}
	jw.WriteFrame("accepted", []byte(`{"id":"f000001"}`))
	jw.WriteFrame("shard", bytes.Repeat([]byte{0xA5}, 300))
	jw.WriteFrame("finished", []byte(`{"state":"done"}`))
	journal := jbuf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])                       // torn write
	f.Add(valid[:headerSize])                         // header only
	f.Add([]byte("DNAC"))                             // magic, no header
	f.Add([]byte(`{"version":1}`))                    // legacy JSON
	f.Add(append([]byte(nil), valid[:headerSize]...)) // no frames, no footer
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+5] ^= 0xFF
	f.Add(flipped)
	f.Add(journal)                  // healthy ledger journal
	f.Add(journal[:len(journal)-7]) // torn tail
	// Ten bytes of the shard frame's first codeword: beyond parity 8.
	rotted := append([]byte(nil), journal...)
	shardBody := headerSize + frameSize(len("accepted"), len(`{"id":"f000001"}`), 8) + 2 + len("shard") + 8
	for i := 0; i < 10; i++ {
		rotted[shardBody+3*i] ^= 0x3C
	}
	f.Add(rotted)

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, frames, err := ReadAll(bytes.NewReader(data))
		if err == nil {
			// Accepted containers must be internally consistent.
			_ = kind.String()
			for _, fr := range frames {
				if fr.Name == "" {
					t.Error("accepted frame with empty name")
				}
			}
		}
		rep := Scrub(bytes.NewReader(data))
		_ = rep.Summary()
		_ = rep.Intact()
		_ = rep.Repairable()
		if rep.Kind.Journal() {
			checkJournalAgreesWithScrub(t, data, rep)
		}
	})
}

// checkJournalAgreesWithScrub opens a temp copy of a journal with
// OpenJournal and compares what it keeps with Scrub's report rep.
func checkJournalAgreesWithScrub(t *testing.T, data []byte, rep *Report) {
	var kept []Section
	for _, s := range rep.Sections {
		if s.Status == SectionCorrupt {
			break
		}
		kept = append(kept, s)
	}
	path := filepath.Join(t.TempDir(), "fuzz.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, frames, err := OpenJournal(path, rep.Kind)
	if err != nil {
		t.Fatalf("OpenJournal of a %s journal Scrub read: %v", rep.Kind, err)
	}
	j.Close()
	if len(frames) != len(kept) {
		t.Fatalf("OpenJournal kept %d frames, Scrub lists %d before the first corrupt one", len(frames), len(kept))
	}
	for i, fr := range frames {
		if fr.Name != kept[i].Name || !bytes.Equal(fr.Payload, kept[i].payload) {
			t.Fatalf("frame %d: OpenJournal kept %q, Scrub read %q", i, fr.Name, kept[i].Name)
		}
	}
	// A frame repaired in memory keeps its rot on disk, so the truncated
	// file scrubs intact up to those same repairs.
	after, err := ScrubFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Truncated || after.ScanErr != nil || len(after.Sections) != len(kept) {
		t.Fatalf("journal after OpenJournal: %s, want %d clean sections", after.Summary(), len(kept))
	}
	for i, s := range after.Sections {
		if s.Status != kept[i].Status {
			t.Fatalf("section %d after OpenJournal: %s, was %s", i, s.Status, kept[i].Status)
		}
	}
}
