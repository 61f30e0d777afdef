package codec_test

import (
	"bytes"
	"fmt"

	"dnastore/internal/codec"
)

// Example encodes a payload into indexed DNA strands and decodes it back
// after losing a strand — the erasure the cross-strand Reed–Solomon group
// parity exists for.
func Example() {
	arch := codec.Archive{GroupData: 8, GroupParity: 3}
	data := []byte("store me in nucleotides, please")
	strands, _ := arch.Encode(data)
	survivors := strands[1:] // strand 0 is lost entirely
	got, err := arch.Decode(survivors)
	fmt.Println(err == nil, bytes.Equal(got, data))
	// Output: true true
}

// ExampleRS corrects unknown errors up to half the parity budget.
func ExampleRS() {
	rs := codec.MustRS(8)
	cw, _ := rs.Encode([]byte("hello gopher"))
	cw[2] ^= 0xFF
	cw[9] ^= 0x55
	msg, err := rs.Decode(cw, nil)
	fmt.Println(err == nil, string(msg))
	// Output: true hello gopher
}
