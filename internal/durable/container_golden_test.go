package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Pins of the container bytes. Every file this repository persists goes
// through encodeFrame, so a change to the Reed–Solomon arithmetic or to
// the frame layout that moved a single byte would make existing pools,
// spills, ledgers and checkpoints unreadable or unrepairable. These full
// SHA-256 digests were captured from the long-division encoder that
// predates the table-driven one. Run with GOLDEN_PRINT=1 to print current
// digests instead of asserting.

// pinPayload returns n deterministic pseudo-random bytes (a 64-bit LCG,
// high byte), so the pins need no RNG package.
func pinPayload(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := seed
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// pinFrames is the frame list of every pinned container: payloads just
// below, at and above one parity-16 codeword's data length (239 bytes),
// a single byte, and a 130 KB pool-sized payload spanning many codewords.
func pinFrames() []struct {
	name    string
	payload []byte
} {
	return []struct {
		name    string
		payload []byte
	}{
		{"one", pinPayload(1, 1)},
		{"b238", pinPayload(238, 2)},
		{"b239", pinPayload(239, 3)},
		{"b240", pinPayload(240, 4)},
		{"pool.json", pinPayload(130*1024, 5)},
	}
}

// checkDigest compares the SHA-256 of b with want, or prints it under
// GOLDEN_PRINT.
func checkDigest(t *testing.T, name string, b []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	if os.Getenv("GOLDEN_PRINT") != "" {
		fmt.Printf("golden %-12s %s\n", name, got)
		return
	}
	if got != want {
		t.Errorf("%s: sha256 = %s, want %s", name, got, want)
	}
}

// TestContainerBytesPinned pins the bytes of a multi-frame container at
// every parity the repository writes (0, the archive group's 6, the
// ledger/checkpoint 8, DefaultParity) and at MaxParity, written both by
// WriteContainerFile and by a Writer over a buffer.
func TestContainerBytesPinned(t *testing.T) {
	want := map[int]string{
		0:   "b895eef872500942f13dbaa61fe9c7d7f2de6d19acf4a9f32067c7e68160e413",
		6:   "bc3b461afad3e14d108027606c22a1f8377388af69d25e8617a12bdedc208010",
		8:   "bc9a6f9894aa80100d06f72d240dab187bb17e28227dbc28876887a1e5704a76",
		16:  "64e645aa5b8e9e28cff0c92c1139142e35ae9a80a667e553faefeafc40f360ce",
		128: "4067d5706f139ed712c45b6acd761a05ab39a2caea171ba307ce2c8109e2359e",
	}
	dir := t.TempDir()
	for _, parity := range []int{0, 6, 8, DefaultParity, MaxParity} {
		write := func(w *Writer) error {
			for _, f := range pinFrames() {
				if err := w.WriteFrame(f.name, f.payload); err != nil {
					return err
				}
			}
			return nil
		}
		path := filepath.Join(dir, "c"+strconv.Itoa(parity)+".dnac")
		if err := WriteContainerFile(path, KindPool, Options{Parity: parity}, write); err != nil {
			t.Fatalf("parity %d: %v", parity, err)
		}
		fileBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "parity-"+strconv.Itoa(parity), fileBytes, want[parity])

		var buf bytes.Buffer
		w, err := NewWriter(&buf, KindPool, Options{Parity: parity})
		if err != nil {
			t.Fatal(err)
		}
		if err := write(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), fileBytes) {
			t.Errorf("parity %d: Writer bytes differ from WriteContainerFile", parity)
		}

		_, frames, err := ReadAll(bytes.NewReader(fileBytes))
		if err != nil {
			t.Fatalf("parity %d: %v", parity, err)
		}
		for i, f := range pinFrames() {
			if frames[i].Name != f.name || !bytes.Equal(frames[i].Payload, f.payload) || frames[i].Corrected != 0 {
				t.Errorf("parity %d: frame %d does not read back clean", parity, i)
			}
		}
	}
}

// TestJournalBytesPinned pins a parity-8 journal built by CreateJournal
// and Append, the path of the fleet ledger and the simulation checkpoints.
func TestJournalBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pin.wal")
	j, err := CreateJournal(path, KindLedger, Options{Parity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pinFrames() {
		if err := j.Append(f.name, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "journal-8", b, "89338b912e9b1e870f7c5e2f332fdd740d70d87b0e358860b3572b06d295fed1")
}
