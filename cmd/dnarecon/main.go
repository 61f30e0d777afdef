// Command dnarecon runs trace-reconstruction algorithms over a clustered
// dataset and reports per-strand and per-character accuracy, optionally
// with post-reconstruction error-position profiles and the fixed-coverage
// subsampling protocol of §3.2.
//
// Usage:
//
//	dnarecon -in nanopore.txt -algs bma,iterative
//	dnarecon -in nanopore.txt -algs iterative -coverage 5 -min-coverage 10
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dnastore/internal/dataset"
	"dnastore/internal/durable"
	"dnastore/internal/metrics"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
)

func main() {
	var (
		in          = flag.String("in", "", "clusters file (required)")
		algNames    = flag.String("algs", "bma,iterative", "comma-separated algorithms: majority, bma, bma-oneway, iterative, iterative-sweep (Iterative's one-way pass alone, i.e. bma-oneway), iterative-twoway, iterative-weighted, divbma, msa")
		coverage    = flag.Int("coverage", 0, "fixed-coverage subsample (0 = use clusters as-is)")
		minCoverage = flag.Int("min-coverage", 10, "minimum cluster coverage for subsampling")
		profiles    = flag.Bool("profiles", false, "print post-reconstruction Hamming/gestalt profiles as CSV")
		census      = flag.Bool("census", false, "print residual error-type census")
		outPath     = flag.String("out", "", "write the first algorithm's reconstructed strands (one per line) to this file")
		seed        = flag.Uint64("seed", 1, "shuffle seed for the subsampling protocol")
		logOpts     = obs.LogFlags(flag.CommandLine)
	)
	flag.Parse()
	logger := logOpts.Logger("dnarecon")
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dnarecon: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	ds, err := dataset.Read(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	if *coverage > 0 {
		ds.ShuffleReads(rng.New(*seed))
		ds, err = ds.SubsampleFixed(*coverage, *minCoverage)
		if err != nil {
			fail(err)
		}
	}
	fmt.Println(ds.ComputeStats())

	length := 0
	for _, c := range ds.Clusters {
		if c.Ref.Len() > length {
			length = c.Ref.Len()
		}
	}

	stages := obs.NewStageTimer()
	ctx := obs.WithTimer(context.Background(), stages)
	for algIdx, name := range strings.Split(*algNames, ",") {
		name = strings.TrimSpace(name)
		alg, ok := recon.ByName(name)
		if !ok {
			fail(fmt.Errorf("unknown algorithm %q", name))
		}
		out := recon.ReconstructDatasetCtx(ctx, alg, ds)
		if *outPath != "" && algIdx == 0 {
			// Atomic, so a refused strand leaves no partial file behind.
			if err := durable.WriteFileAtomic(*outPath, func(w io.Writer) error {
				return dataset.WriteRefs(w, out)
			}); err != nil {
				fail(err)
			}
		}
		acc := metrics.ComputeAccuracy(ds.References(), out)
		fmt.Printf("%-20s %s\n", alg.Name(), acc)
		if *census {
			c := metrics.CensusErrors(ds.References(), out)
			fmt.Printf("%-20s residual: %s\n", "", c)
		}
		if *profiles {
			h := metrics.HammingProfile(ds.References(), out, length)
			g := metrics.GestaltProfile(ds.References(), out, length)
			fmt.Printf("position,%s hamming,%s gestalt\n", alg.Name(), alg.Name())
			hr, gr := h.Rates(), g.Rates()
			for i := range hr {
				fmt.Printf("%d,%g,%g\n", i, hr[i], gr[i])
			}
		}
	}
	// Per-algorithm wall time and cluster throughput ("recon.<alg> 1.2s
	// (10000 items, 8333.3/s)"), collected by the stage timer on the context.
	if summary := stages.Summary(); summary != "" {
		logger.Debug("stage timings", "stages", summary)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dnarecon:", err)
	os.Exit(1)
}
