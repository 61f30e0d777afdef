package codec

import (
	"strconv"
	"testing"

	"dnastore/internal/rng"
)

// rsBenchParities are the parity counts the repository encodes with: the
// archive group (6), ledgers, checkpoints and archive strands (8),
// durable.DefaultParity (16) and durable.MaxParity (128).
var rsBenchParities = []int{6, 8, 16, 128}

// rsSink keeps the benchmarked results live.
var rsSink []byte

// BenchmarkRSEncode encodes one full codeword (255−NSym message bytes).
func BenchmarkRSEncode(b *testing.B) {
	for _, nsym := range rsBenchParities {
		b.Run("nsym="+strconv.Itoa(nsym), func(b *testing.B) {
			rs := MustRS(nsym)
			msg := randMsg(rng.New(1), 255-nsym)
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cw, err := rs.Encode(msg)
				if err != nil {
					b.Fatal(err)
				}
				rsSink = cw
			}
		})
	}
}

// BenchmarkRSDecodeClean checks one clean full codeword, the path of
// every read of an undamaged container.
func BenchmarkRSDecodeClean(b *testing.B) {
	for _, nsym := range rsBenchParities {
		b.Run("nsym="+strconv.Itoa(nsym), func(b *testing.B) {
			rs := MustRS(nsym)
			cw, err := rs.Encode(randMsg(rng.New(1), 255-nsym))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(cw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg, n, err := rs.DecodeDetail(cw, nil)
				if err != nil || n != 0 {
					b.Fatal(n, err)
				}
				rsSink = msg
			}
		})
	}
}
