package seqio

import (
	"bytes"
	"testing"

	"dnastore/internal/dataset"
	"dnastore/internal/dna"
)

// TestWriteDatasetPinned pins the bytes WriteDataset writes — the
// reference FASTA and read FASTQ of dnagen -format fastq (quality 12) and
// examples/trainingdata (quality 20) — for a dataset with a two-read
// cluster, a one-read cluster and an erasure.
func TestWriteDatasetPinned(t *testing.T) {
	ds := &dataset.Dataset{
		Name: "pin",
		Clusters: []dataset.Cluster{
			{Ref: "ACGTACGT", Reads: []dna.Strand{"ACGTACGT", "ACGTCGT"}},
			{Ref: "TTTTCCCC", Reads: []dna.Strand{"TTTTCCC"}},
			{Ref: "GGGGAAAA"},
		},
	}
	const wantFASTA = ">ref-0\nACGTACGT\n>ref-1\nTTTTCCCC\n>ref-2\nGGGGAAAA\n"
	for _, c := range []struct {
		qual      int
		wantFASTQ string
	}{
		{12, "@cluster-0/read-0\nACGTACGT\n+\n--------\n" +
			"@cluster-0/read-1\nACGTCGT\n+\n-------\n" +
			"@cluster-1/read-0\nTTTTCCC\n+\n-------\n"},
		{20, "@cluster-0/read-0\nACGTACGT\n+\n55555555\n" +
			"@cluster-0/read-1\nACGTCGT\n+\n5555555\n" +
			"@cluster-1/read-0\nTTTTCCC\n+\n5555555\n"},
	} {
		var refs, reads bytes.Buffer
		if err := WriteDataset(&refs, &reads, ds, c.qual); err != nil {
			t.Fatal(err)
		}
		if refs.String() != wantFASTA {
			t.Errorf("qual %d: FASTA = %q, want %q", c.qual, refs.String(), wantFASTA)
		}
		if reads.String() != c.wantFASTQ {
			t.Errorf("qual %d: FASTQ = %q, want %q", c.qual, reads.String(), c.wantFASTQ)
		}
	}
}
