package seqio

import (
	"fmt"
	"io"
	"strings"

	"dnastore/internal/dataset"
)

// Dataset export: a clustered dataset writes as a FASTA of references plus
// a FASTQ of reads whose IDs encode the cluster assignment
// ("cluster-<index>/read-<k>").

// DatasetToFASTA returns the dataset's references as FASTA records named
// "ref-<index>".
func DatasetToFASTA(ds *dataset.Dataset) []Record {
	out := make([]Record, len(ds.Clusters))
	for i, c := range ds.Clusters {
		out[i] = Record{ID: fmt.Sprintf("ref-%d", i), Seq: c.Ref}
	}
	return out
}

// DatasetToFASTQ returns every read as a FASTQ record whose ID carries the
// cluster assignment.
func DatasetToFASTQ(ds *dataset.Dataset, qual int) []Record {
	var out []Record
	for i, c := range ds.Clusters {
		for k, read := range c.Reads {
			q := byte(qual + 33)
			out = append(out, Record{
				ID:   fmt.Sprintf("cluster-%d/read-%d", i, k),
				Seq:  read,
				Qual: []byte(strings.Repeat(string(q), read.Len())),
			})
		}
	}
	return out
}

// WriteDataset writes the dataset as a reference FASTA and a read FASTQ.
func WriteDataset(refW, readW io.Writer, ds *dataset.Dataset, qual int) error {
	if err := WriteFASTA(refW, DatasetToFASTA(ds), 0); err != nil {
		return err
	}
	return WriteFASTQ(readW, DatasetToFASTQ(ds, qual), qual)
}
