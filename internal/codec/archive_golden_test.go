package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestArchiveStrandsPinned pins the strands Archive.Encode lays out for a
// fixed 1 KiB object at strand parity 8 and 6-of-16 group parity, so both
// the per-strand and the cross-strand Reed–Solomon encoders are held to
// the bytes of the long-division encoder they replaced. Run with
// GOLDEN_PRINT=1 to print the current digest instead of asserting.
func TestArchiveStrandsPinned(t *testing.T) {
	obj := make([]byte, 1024)
	x := uint64(7)
	for i := range obj {
		x = x*6364136223846793005 + 1442695040888963407
		obj[i] = byte(x >> 56)
	}
	strands, err := Archive{StrandParity: 8, GroupData: 10, GroupParity: 6}.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, s := range strands {
		sb.WriteString(string(s))
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	got := hex.EncodeToString(sum[:])
	const want = "0bcdb4e1a8f35224cceccf16ea6a8cf267738b72349f27fba437f0ffd7ada7c5"
	if os.Getenv("GOLDEN_PRINT") != "" {
		fmt.Printf("golden archive %d strands %s\n", len(strands), got)
		return
	}
	if got != want {
		t.Errorf("archive strands sha256 = %s, want %s", got, want)
	}
	if back, err := (Archive{StrandParity: 8, GroupData: 10, GroupParity: 6}).Decode(strands); err != nil || string(back) != string(obj) {
		t.Errorf("pinned strands do not decode back: %v", err)
	}
}
