package main

import (
	"os"
	"testing"
)

// TestParseLoadFileReadsCommittedFile: the gate reads every entry of the
// committed BENCH_serve.json, and a file of any other schema fails.
func TestParseLoadFileReadsCommittedFile(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseLoadFile("BENCH_serve.json", data)
	if err != nil || len(f.Entries) == 0 {
		t.Fatalf("committed baseline: %+v, %v", f, err)
	}
	for _, e := range f.Entries {
		if e.Name == "" || e.Runs == 0 {
			t.Errorf("entry %+v lacks a name or runs", e)
		}
	}
	for _, bad := range []string{
		`{"schema":"dnaload/v1","name":"single","runs":90}`,
		`{"entries":[]}`,
		`[]`,
	} {
		if _, err := parseLoadFile("bad.json", []byte(bad)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
