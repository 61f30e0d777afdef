package codec

import (
	"bytes"
	"testing"
)

// FuzzRSCodeword checks the shift-register kernel against the test-file
// oracle over fuzzed parity counts, messages and error patterns: Encode
// equals the long-division encoder, the re-encoding clean check agrees
// with "all syndromes zero", and DecodeDetail corrects up to NSym/2
// unknown-position errors, returning the message and the error count.
// errs is read as (position, XOR mask) byte pairs.
func FuzzRSCodeword(f *testing.F) {
	f.Add(uint8(15), []byte("hello gopher"), []byte{2, 0xFF, 9, 0x55})
	f.Add(uint8(7), bytes.Repeat([]byte{0xA5}, 247), []byte{0, 1, 246, 2, 250, 3, 100, 4})
	f.Add(uint8(5), []byte{0}, []byte{})
	f.Add(uint8(127), bytes.Repeat([]byte{1, 2, 3}, 40), []byte{7, 7})
	f.Add(uint8(253), []byte{0x42}, []byte{0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, nsymB uint8, msg, errs []byte) {
		nsym := 1 + int(nsymB)%254
		if len(msg) == 0 || len(msg)+nsym > 255 {
			return
		}
		rs := MustRS(nsym)
		cw, err := rs.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cw, oracleEncode(nsym, msg)) {
			t.Fatalf("nsym %d: Encode differs from the oracle", nsym)
		}
		if len(msg) > nsym && rs.clean(msg) != oracleClean(nsym, msg) {
			t.Fatalf("nsym %d: clean check disagrees with the syndromes on the raw message", nsym)
		}
		bad := append([]byte(nil), cw...)
		hit := make(map[int]bool)
		for i := 0; i+1 < len(errs) && len(hit) < nsym/2; i += 2 {
			p := int(errs[i]) % len(bad)
			if errs[i+1] == 0 || hit[p] {
				continue
			}
			hit[p] = true
			bad[p] ^= errs[i+1]
		}
		if rs.clean(bad) != oracleClean(nsym, bad) {
			t.Fatalf("nsym %d, %d errors: clean check disagrees with the syndromes", nsym, len(hit))
		}
		got, n, err := rs.DecodeDetail(bad, nil)
		if err != nil {
			t.Fatalf("nsym %d, %d errors: %v", nsym, len(hit), err)
		}
		if !bytes.Equal(got, msg) || n != len(hit) {
			t.Fatalf("nsym %d, %d errors: decoded %d corrections, message equal %v", nsym, len(hit), n, bytes.Equal(got, msg))
		}
	})
}
