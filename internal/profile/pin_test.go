package profile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dnastore/internal/wetlab"
)

// TestWriteJSONPinned pins the bytes of a fixed-seed profile as WriteJSON
// writes it and as WriteFile wraps it in a container (dnaprofile -json),
// under 1 and 4 profiling workers.
func TestWriteJSONPinned(t *testing.T) {
	const (
		wantJSON = "6e83dfa353cca13b535e68510027b3c42cbe7cf968c0589e8eb91bf042037400"
		wantFile = "dd95a3ed0ea3b50e4561c24cb09429a3cc75317bf0301aedae9b41453bb8eae3"
	)
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters = 150
	cfg.Seed = 21
	ds := wetlab.MustGenerate(cfg)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		p, err := Profile(ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "profile.json")
		if err := p.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(buf.Bytes()); got != wantJSON {
			t.Errorf("workers=%d: WriteJSON sha256 = %s, want %s", workers, got, wantJSON)
		}
		if got := sha256Hex(file); got != wantFile {
			t.Errorf("workers=%d: WriteFile sha256 = %s, want %s", workers, got, wantFile)
		}
	}
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
