package dataset

import (
	"bytes"
	"testing"

	"dnastore/internal/dna"
)

// fuzzDataset builds a dataset from arbitrary bytes: 0xff ends a cluster,
// 0xfe ends a strand, and every other byte is a base (its low two bits).
// Empty strands are dropped; a cluster's first strand is its reference and
// the rest its reads, so a lone reference is an erasure.
func fuzzDataset(data []byte) *Dataset {
	d := &Dataset{}
	for _, field := range bytes.Split(data, []byte{0xff}) {
		var strands []dna.Strand
		for _, raw := range bytes.Split(field, []byte{0xfe}) {
			if len(raw) == 0 {
				continue
			}
			b := make([]byte, len(raw))
			for i, x := range raw {
				b[i] = "ACGT"[x&3]
			}
			strands = append(strands, dna.Strand(b))
		}
		if len(strands) > 0 {
			d.Clusters = append(d.Clusters, Cluster{Ref: strands[0], Reads: strands[1:]})
		}
	}
	return d
}

// encode returns Write's bytes, failing t if Write fails or AppendText
// gives other bytes.
func encode(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	b, err := d.AppendText(nil)
	if err != nil {
		t.Fatalf("AppendText: %v", err)
	}
	if !bytes.Equal(b, buf.Bytes()) {
		t.Fatalf("AppendText gives %q, Write %q", b, buf.Bytes())
	}
	return buf.Bytes()
}

// FuzzDatasetRoundTrip hardens the cluster text format from both sides.
// A dataset of non-empty strands (erasures allowed) built from the input
// must survive Write→Read unchanged, with AppendText giving Write's bytes.
// The same input, read as a dataset file, must never panic Read; whatever
// Read accepts must re-encode to bytes that read back to the same dataset.
func FuzzDatasetRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0xfe, 0, 1, 2, 0xfe, 0, 0, 1, 2, 3, 0xff, 3, 3, 3, 3, 0xff, 2, 2, 0xfe, 2})
	f.Add([]byte("ACGT\n*****************************\nACGT\nACG\n\nTTTT\n*****************************\n\n"))
	f.Add([]byte("ACGT\n*****************************\nACG\nACGT"))
	f.Add([]byte("  ACGT \r\n*****************************\n\n\n\nGG\n*****************************\nG\n"))
	f.Add([]byte("ACGT\nnot-a-separator\nACG\n"))
	f.Add([]byte("ACGN\n*****************************\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDataset(data)
		back, err := Read(bytes.NewReader(encode(t, d)))
		if err != nil {
			t.Fatalf("Read of Write's bytes: %v", err)
		}
		if !equalDatasets(back, d) {
			t.Fatalf("Write→Read gives %+v, want %+v", back.Clusters, d.Clusters)
		}

		parsed, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := Read(bytes.NewReader(encode(t, parsed)))
		if err != nil {
			t.Fatalf("Read of a re-encoded dataset: %v", err)
		}
		if !equalDatasets(again, parsed) {
			t.Fatalf("re-encoded dataset reads back as %+v, want %+v", again.Clusters, parsed.Clusters)
		}
	})
}
