// Command dnabench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Tables print as
// aligned text; figures print as ASCII profiles, and -csv <dir> writes the
// machine-readable data for external plotting. An experiment that fails,
// or a CSV or SVG file that cannot be written, is reported and the rest
// still run; dnabench then exits 1. Performance is measured elsewhere: the
// Go benchmarks (`make bench`), the exact allocation tests, and bench/,
// which compares two commits run by run over the end-to-end paths.
//
// Usage:
//
//	dnabench                 # run everything at quick scale (600 clusters)
//	dnabench -full           # the paper's full scale (10,000 clusters)
//	dnabench -exp table3.1   # one experiment
//	dnabench -list           # list experiment IDs
//	dnabench -csv out/       # also write CSV files
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"dnastore/internal/experiments"
	"dnastore/internal/obs"
)

func main() {
	var (
		full     = flag.Bool("full", false, "run at the paper's full scale (10,000 clusters)")
		clusters = flag.Int("clusters", 0, "override cluster count")
		seed     = flag.Uint64("seed", 1, "random seed")
		expID    = flag.String("exp", "", "run a single experiment by ID")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		csvDir   = flag.String("csv", "", "directory to write CSV outputs into")
		svgDir   = flag.String("svg", "", "directory to write SVG figures into")
		logOpts  = obs.LogFlags(flag.CommandLine)
	)
	flag.Parse()
	if *clusters < 0 {
		fmt.Fprintf(os.Stderr, "dnabench: -clusters must not be negative (0 keeps the scale's count), got %d\n", *clusters)
		os.Exit(2)
	}
	logger := logOpts.Logger("dnabench")

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", e.ID, e.Description)
		}
		return
	}

	scale := experiments.QuickScale()
	if *full {
		scale = experiments.FullScale()
	}
	if *clusters > 0 {
		scale.Clusters = *clusters
	}
	scale.Seed = *seed

	entries := experiments.Registry()
	if *expID != "" {
		e, err := experiments.Lookup(*expID)
		if err != nil {
			fail(err)
		}
		entries = []experiments.Entry{e}
	}

	// SIGINT drains gracefully: the workbench generation stops between
	// clusters, the current experiment finishes, and everything already
	// rendered or written stays on disk as partial results.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	needWB := false
	for _, e := range entries {
		if e.NeedsWorkbench {
			needWB = true
		}
	}
	var wb *experiments.Workbench
	if needWB {
		fmt.Fprintf(os.Stderr, "generating wetlab dataset (%d clusters) and calibrating...\n", scale.Clusters)
		start := time.Now()
		var err error
		wb, err = experiments.NewWorkbenchCtx(ctx, scale)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "workbench ready in %v: %s\n", time.Since(start).Round(time.Millisecond), wb.Profile.Summary())
	}

	for _, dir := range []string{*csvDir, *svgDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail(err)
			}
		}
	}

	failed := false
	report := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
		failed = true
	}
	for _, e := range entries {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "dnabench: interrupted — partial results written")
			os.Exit(130)
		}
		start := time.Now()
		results, err := e.Run(wb, scale)
		if err != nil {
			report(e.ID, err)
			continue
		}
		for i, r := range results {
			fmt.Println(r.Render())
			name := sanitize(e.ID)
			if len(results) > 1 {
				name = fmt.Sprintf("%s_%d", name, i+1)
			}
			if *csvDir != "" {
				path := filepath.Join(*csvDir, name+".csv")
				if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
					report(e.ID, err)
				}
			}
			if *svgDir != "" {
				if s, ok := r.(experiments.Series); ok {
					path := filepath.Join(*svgDir, name+".svg")
					if err := os.WriteFile(path, []byte(s.SVG()), 0o644); err != nil {
						report(e.ID, err)
					}
				}
			}
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		logger.Debug("experiment done", "id", e.ID, "results", len(results),
			"elapsed", time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

func sanitize(id string) string {
	return strings.NewReplacer(".", "_", "/", "_", " ", "_").Replace(id)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dnabench:", err)
	os.Exit(1)
}
