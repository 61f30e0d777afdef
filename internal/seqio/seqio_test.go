package seqio

import (
	"bytes"
	"strings"
	"testing"
)

func TestFASTAWrapping(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, []Record{{ID: "x", Seq: "ACGTACGTAC"}}, 4); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 wrapped lines
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if lines[1] != "ACGT" || lines[3] != "AC" {
		t.Errorf("wrapping wrong: %v", lines)
	}
	buf.Reset()
	if err := WriteFASTA(&buf, []Record{{ID: "b", Desc: "second record", Seq: "TTTT"}}, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), ">b second record\nTTTT\n"; got != want {
		t.Errorf("FASTA = %q, want %q", got, want)
	}
}

func TestWriteFASTAErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, []Record{{Seq: "ACGT"}}, 0); err == nil {
		t.Error("record without ID accepted")
	}
}

func TestFASTQDefaultQuality(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, []Record{{ID: "x", Desc: "d", Seq: "ACGT"}}, 30); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "@x d\nACGT\n+\n????\n"; got != want { // Phred 30 + 33 = '?'
		t.Errorf("FASTQ = %q, want %q", got, want)
	}
	if err := WriteFASTQ(&buf, []Record{{ID: "x", Seq: "ACGT"}}, 200); err == nil {
		t.Error("out-of-range default quality accepted")
	}
	if err := WriteFASTQ(&buf, []Record{{ID: "x", Seq: "ACGT", Qual: []byte("II")}}, 20); err == nil {
		t.Error("quality length mismatch accepted")
	}
}
