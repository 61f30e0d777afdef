package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// buildContainer assembles a container in memory.
func buildContainer(t *testing.T, kind Kind, parity int, frames map[string][]byte, order []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, kind, Options{Parity: parity})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		if err := w.WriteFrame(name, frames[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	payloads := map[string][]byte{
		"a.json": []byte(`{"hello":"world"}`),
		"b.bin":  bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 600),
		"empty":  nil,
	}
	order := []string{"a.json", "b.bin", "empty"}
	for _, parity := range []int{0, 4, DefaultParity} {
		data := buildContainer(t, KindPool, parity, payloads, order)
		kind, frames, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("parity %d: %v", parity, err)
		}
		if kind != KindPool {
			t.Errorf("parity %d: kind = %v", parity, kind)
		}
		if len(frames) != len(order) {
			t.Fatalf("parity %d: %d frames", parity, len(frames))
		}
		for i, name := range order {
			if frames[i].Name != name {
				t.Errorf("frame %d name %q != %q", i, frames[i].Name, name)
			}
			if !bytes.Equal(frames[i].Payload, payloads[name]) {
				t.Errorf("frame %q payload mismatch", name)
			}
			if frames[i].Corrected != 0 {
				t.Errorf("clean frame %q reported %d corrections", name, frames[i].Corrected)
			}
		}
	}
}

func TestReaderRejectsNonContainer(t *testing.T) {
	for _, data := range [][]byte{
		[]byte(`{"version":1}`),
		[]byte("ACGTACGT\n"),
		[]byte("XXXXXXXXXXXXXXXX"),
	} {
		if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrNotContainer) {
			t.Errorf("%q: err = %v, want ErrNotContainer", data, err)
		}
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	data := buildContainer(t, KindDataset, DefaultParity,
		map[string][]byte{"x": bytes.Repeat([]byte("payload"), 100)}, []string{"x"})
	// Every possible torn-write cut point must surface as ErrTruncated (or
	// a header error for sub-header cuts), never as a silent success.
	for cut := 0; cut < len(data); cut += 7 {
		_, _, err := ReadAll(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("cut at %d of %d accepted", cut, len(data))
		}
	}
	if _, _, err := ReadAll(bytes.NewReader(data[:len(data)-1])); !errors.Is(err, ErrTruncated) {
		t.Errorf("footer cut: %v, want ErrTruncated", err)
	}
}

func TestReaderRepairsBitRotWithinBudget(t *testing.T) {
	payload := bytes.Repeat([]byte("durable payload block "), 40)
	data := buildContainer(t, KindProfile, DefaultParity, map[string][]byte{"p": payload}, []string{"p"})
	// Flip a few bytes inside the frame body (after container header +
	// frame header, before the trailing CRCs/footer).
	bodyStart := headerSize + 2 + 1 + 8 // header + marker/nameLen + name "p" + rawLen + hcrc
	corrupt := append([]byte(nil), data...)
	for _, off := range []int{bodyStart + 3, bodyStart + 300, bodyStart + 601} {
		corrupt[off] ^= 0x55
	}
	kind, frames, err := ReadAll(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("repairable container rejected: %v", err)
	}
	if kind != KindProfile || len(frames) != 1 {
		t.Fatalf("kind %v, %d frames", kind, len(frames))
	}
	if !bytes.Equal(frames[0].Payload, payload) {
		t.Error("repaired payload differs from original")
	}
	if frames[0].Corrected == 0 {
		t.Error("repair reported zero corrections")
	}
}

func TestReaderFlagsDamageBeyondBudget(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 200) // a single codeword at parity 4
	data := buildContainer(t, KindPool, 4, map[string][]byte{"p": payload}, []string{"p"})
	bodyStart := headerSize + 2 + 1 + 8
	corrupt := append([]byte(nil), data...)
	for i := 0; i < 10; i++ { // 10 byte errors >> 2 correctable
		corrupt[bodyStart+i*17] ^= 0xFF
	}
	rd, err := NewReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FrameError", err)
	}
	// The stream must stay scannable: footer still verifies.
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("scan after corrupt frame: %v, want EOF", err)
	}
}

func TestScrubVerdicts(t *testing.T) {
	payload := bytes.Repeat([]byte("scrub me "), 120)
	clean := buildContainer(t, KindPool, DefaultParity,
		map[string][]byte{"a": payload, "b": []byte("tiny")}, []string{"a", "b"})

	rep := Scrub(bytes.NewReader(clean))
	if !rep.Intact() || rep.Damaged() {
		t.Errorf("clean container: %s", rep.Summary())
	}

	bodyStart := headerSize + 2 + 1 + 8
	rot := append([]byte(nil), clean...)
	rot[bodyStart+10] ^= 0x01
	rep = Scrub(bytes.NewReader(rot))
	if rep.Intact() || !rep.Damaged() || !rep.Repairable() {
		t.Errorf("bit rot within budget: %s", rep.Summary())
	}

	torn := clean[:len(clean)/2]
	rep = Scrub(bytes.NewReader(torn))
	if !rep.Truncated || rep.Repairable() {
		t.Errorf("torn container: %s", rep.Summary())
	}

	rep = Scrub(bytes.NewReader([]byte(`{"json":true}`)))
	if !rep.Legacy {
		t.Errorf("legacy file: %s", rep.Summary())
	}
}

func TestRepairFileRestoresBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.dna")
	payload := bytes.Repeat([]byte("repair target payload "), 64)
	err := WriteContainerFile(path, KindPool, Options{Parity: DefaultParity}, func(w *Writer) error {
		return w.WriteFrame("pool.json", payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bodyStart := headerSize + 2 + len("pool.json") + 8
	rot := append([]byte(nil), clean...)
	rot[bodyStart+50] ^= 0x20
	rot[bodyStart+500] ^= 0x40
	if err := os.WriteFile(path, rot, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RepairFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Damaged() || !rep.Repairable() {
		t.Fatalf("repair report: %s", rep.Summary())
	}
	restored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, clean) {
		t.Error("repaired file is not byte-identical to the original")
	}
	if rep2, _ := ScrubFile(path); !rep2.Intact() {
		t.Errorf("post-repair scrub: %s", rep2.Summary())
	}
}

func TestJournalAppendReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	j, err := CreateJournal(path, KindCheckpoint, Options{Parity: 8})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 5; i++ {
		p := bytes.Repeat([]byte{byte('a' + i)}, 10+i*13)
		want = append(want, p)
		if err := j.Append("cluster", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, frames, err := OpenJournal(path, KindCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(want) {
		t.Fatalf("reopened %d frames, want %d", len(frames), len(want))
	}
	for i, f := range frames {
		if !bytes.Equal(f.Payload, want[i]) {
			t.Errorf("frame %d payload mismatch", i)
		}
	}
	// Appending after reopen extends the journal.
	if err := j2.Append("cluster", []byte("more")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, frames, err = OpenJournal(path, KindCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(want)+1 {
		t.Fatalf("after append: %d frames", len(frames))
	}
}

func TestJournalDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	j, err := CreateJournal(path, KindCheckpoint, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append("cluster", bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way through the last frame.
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, frames, err := OpenJournal(path, KindCheckpoint)
	if err != nil {
		t.Fatalf("torn journal unopenable: %v", err)
	}
	if len(frames) != 3 {
		t.Fatalf("torn journal kept %d frames, want 3", len(frames))
	}
	// The torn tail must have been truncated so new appends are clean.
	if err := j2.Append("cluster", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, frames, err = OpenJournal(path, KindCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 || !bytes.Equal(frames[3].Payload, []byte("fresh")) {
		t.Fatalf("append after tear: %d frames", len(frames))
	}
}

func TestWriteFileAtomicLeavesOldFileOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("mid-write failure")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial new"))
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old" {
		t.Errorf("old file clobbered: %q, %v", got, err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("temp file leaked: %v", left)
	}
}

func TestKindMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	err := WriteContainerFile(path, KindDataset, Options{}, func(w *Writer) error {
		return w.WriteFrame("d", []byte("data"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadContainerFile(path, KindPool); err == nil {
		t.Error("dataset container accepted as pool")
	}
	if _, err := ReadContainerFile(path, KindDataset); err != nil {
		t.Errorf("matching kind rejected: %v", err)
	}
}

// TestWriteFrameAllocs gates the frame encoder exactly: one exact-size
// frame slice, no buffer growth and nothing per codeword.
func TestWriteFrameAllocs(t *testing.T) {
	payload := pinPayload(130*1024, 5)
	w, err := NewWriter(io.Discard, KindPool, Options{Parity: DefaultParity})
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := w.WriteFrame("pool.json", payload); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Errorf("%v allocs per 130 KB WriteFrame, want 1", a)
	}
}
