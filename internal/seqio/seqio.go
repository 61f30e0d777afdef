// Package seqio writes the interchange formats of the sequencing world:
// FASTA for reference strands and FASTQ for reads (real pipelines receive
// sequencer output as FASTQ). It lets the simulator's datasets flow to
// external tools — aligners, basecallers, plotting scripts — without
// bespoke converters.
package seqio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"dnastore/internal/dna"
)

// Record is one named sequence, optionally with FASTQ quality scores.
type Record struct {
	// ID is the header text after '>' or '@' (up to the first space).
	ID string
	// Desc is the remainder of the header line, if any.
	Desc string
	// Seq is the sequence.
	Seq dna.Strand
	// Qual holds Phred+33 quality bytes for FASTQ records; nil for FASTA.
	Qual []byte
}

// WriteFASTA writes records in FASTA format, wrapping sequences at width
// columns (no wrapping when width <= 0).
func WriteFASTA(w io.Writer, records []Record, width int) error {
	bw := bufio.NewWriter(w)
	for _, rec := range records {
		if rec.ID == "" {
			return fmt.Errorf("seqio: record without ID")
		}
		header := ">" + rec.ID
		if rec.Desc != "" {
			header += " " + rec.Desc
		}
		if _, err := fmt.Fprintln(bw, header); err != nil {
			return err
		}
		seq := string(rec.Seq)
		if width <= 0 {
			if _, err := fmt.Fprintln(bw, seq); err != nil {
				return err
			}
			continue
		}
		for start := 0; start < len(seq); start += width {
			end := start + width
			if end > len(seq) {
				end = len(seq)
			}
			if _, err := fmt.Fprintln(bw, seq[start:end]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFASTQ writes records in four-line FASTQ format. Records without
// quality bytes are assigned a constant quality derived from qualDefault
// (Phred score, e.g. 20 → '5').
func WriteFASTQ(w io.Writer, records []Record, qualDefault int) error {
	bw := bufio.NewWriter(w)
	for _, rec := range records {
		if rec.ID == "" {
			return fmt.Errorf("seqio: record without ID")
		}
		qual := rec.Qual
		if qual == nil {
			q := byte(qualDefault + 33)
			if q < 33 || q > 126 {
				return fmt.Errorf("seqio: default quality %d out of Phred+33 range", qualDefault)
			}
			qual = []byte(strings.Repeat(string(q), rec.Seq.Len()))
		}
		if len(qual) != rec.Seq.Len() {
			return fmt.Errorf("seqio: record %q: quality length %d != sequence length %d",
				rec.ID, len(qual), rec.Seq.Len())
		}
		header := "@" + rec.ID
		if rec.Desc != "" {
			header += " " + rec.Desc
		}
		if _, err := fmt.Fprintf(bw, "%s\n%s\n+\n%s\n", header, rec.Seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}
