package store

import (
	"bytes"
	"testing"

	"dnastore/internal/durable"
)

// FuzzLoadPool hardens load, the pool loader behind LoadFile — the legacy
// JSON path, the container path and its kind check — against arbitrary
// bytes: forged snapshots, invalid strands, duplicate keys, containers of
// another kind and mutated containers must error cleanly, never panic.
func FuzzLoadPool(f *testing.F) {
	f.Add([]byte(`{"version":1,"options":{},"objects":[]}`))
	f.Add([]byte(`{"version":1,"options":{"payload_bytes":8},"objects":[{"key":"a","primer":"ACGT","strands":["AACC"]}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"objects":[{"key":"","primer":""}]}`))
	f.Add([]byte(`{"version":1,"objects":[{"key":"a","primer":"XYZ!"}]}`))
	f.Add([]byte(`{"version":1,"objects":[{"key":"a"},{"key":"a"}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))

	// A valid legacy JSON pool, the same pool in a container (as SaveFile
	// writes it), its snapshot in a profile container, and a truncated
	// container header.
	p := New(Options{Seed: 1})
	p.Store("k", []byte("fuzz seed payload"))
	var snap bytes.Buffer
	if err := p.Save(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	for _, kind := range []durable.Kind{durable.KindPool, durable.KindProfile} {
		var buf bytes.Buffer
		w, err := durable.NewWriter(&buf, kind, durable.Options{Parity: durable.DefaultParity})
		if err != nil {
			f.Fatal(err)
		}
		if err := w.WriteFrame(poolFrame, snap.Bytes()); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("DNAC\x01\x01\x10\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, err := load(bytes.NewReader(data))
		if err == nil && p == nil {
			t.Error("nil pool without error")
		}
		if p != nil {
			// Accepted pools must be internally consistent.
			for _, k := range p.Keys() {
				if k == "" {
					t.Error("accepted pool with empty key")
				}
			}
			_ = p.NumStrands()
		}
	})
}
