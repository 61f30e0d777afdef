package main

import (
	"strings"
	"testing"
)

// TestReportCheck: a run fails on any lost, duplicated or corrupted job,
// and when no run succeeded; a clean run with a success passes.
func TestReportCheck(t *testing.T) {
	clean := loadReport{Runs: 3, Succeeded: 2, ShedGaveUp: 1}
	if err := clean.check(); err != nil {
		t.Errorf("clean report failed: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*loadReport)
		want string
	}{
		{"lost", func(r *loadReport) { r.Lost = 1 }, "conservation violated"},
		{"duplicated", func(r *loadReport) { r.Duplicated = 1 }, "conservation violated"},
		{"corrupted", func(r *loadReport) { r.Corrupted = 1 }, "conservation violated"},
		{"no success", func(r *loadReport) { r.Succeeded, r.ShedGaveUp = 0, 3 }, "zero of 3 runs succeeded"},
	} {
		r := clean
		tc.edit(&r)
		if err := r.check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
