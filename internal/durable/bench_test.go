package durable

import (
	"bytes"
	"testing"
)

// BenchmarkContainerRoundTrip writes a 130 KB payload (the size of the
// store workload's pool) into a DefaultParity container and reads it back.
func BenchmarkContainerRoundTrip(b *testing.B) {
	payload := pinPayload(130*1024, 5)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w, err := NewWriter(&buf, KindPool, Options{Parity: DefaultParity})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.WriteFrame("pool.json", payload); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadAll(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
