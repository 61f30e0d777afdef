// Command dnagen generates the synthetic "real Nanopore" dataset — the
// wetlab stand-in described in DESIGN.md §2 — and writes it in the cluster
// text format (reference, separator, noisy reads, blank line).
//
// Usage:
//
//	dnagen -clusters 10000 -len 110 -coverage 26.97 -error 0.059 -o nanopore.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dnastore/internal/durable"
	"dnastore/internal/obs"
	"dnastore/internal/seqio"
	"dnastore/internal/wetlab"
)

func main() {
	cfg := wetlab.DefaultConfig()
	var out string
	flag.IntVar(&cfg.NumClusters, "clusters", cfg.NumClusters, "number of reference strands")
	flag.IntVar(&cfg.StrandLen, "len", cfg.StrandLen, "reference strand length")
	flag.Float64Var(&cfg.MeanCoverage, "coverage", cfg.MeanCoverage, "mean sequencing coverage")
	flag.Float64Var(&cfg.Dispersion, "dispersion", cfg.Dispersion, "negative-binomial coverage dispersion")
	flag.Float64Var(&cfg.ErrorRate, "error", cfg.ErrorRate, "aggregate per-base error rate")
	flag.Float64Var(&cfg.ErasureP, "erasures", cfg.ErasureP, "whole-cluster erasure probability")
	seed := flag.Uint64("seed", cfg.Seed, "random seed")
	format := flag.String("format", "clusters", "output format: clusters (text), fastq (refs FASTA + reads FASTQ)")
	flag.StringVar(&out, "o", "-", "output file (- for stdout); with -format fastq, the base name for <out>.fasta/<out>.fastq")
	logOpts := obs.LogFlags(flag.CommandLine)
	flag.Parse()
	cfg.Seed = *seed
	logger := logOpts.Logger("dnagen")

	start := time.Now()
	ds, err := wetlab.Generate(cfg)
	if err != nil {
		fail(err)
	}
	logger.Debug("dataset generated", "clusters", cfg.NumClusters, "len", cfg.StrandLen,
		"coverage", cfg.MeanCoverage, "error_rate", cfg.ErrorRate, "seed", cfg.Seed,
		"elapsed", time.Since(start).Round(time.Millisecond))
	// Every file is written atomically: a dataset the format refuses (an
	// empty read ends a cluster in the text format) leaves no file behind.
	switch *format {
	case "clusters":
		if out == "-" {
			err = ds.Write(os.Stdout)
		} else {
			err = durable.WriteFileAtomic(out, ds.Write)
		}
	case "fastq":
		if out == "-" {
			fail(fmt.Errorf("-format fastq needs -o <basename>"))
		}
		// The FASTA commits when both halves are written, the FASTQ after it.
		err = durable.WriteFileAtomic(out+".fastq", func(qw io.Writer) error {
			return durable.WriteFileAtomic(out+".fasta", func(rw io.Writer) error {
				return seqio.WriteDataset(rw, qw, ds, 12)
			})
		})
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, ds.ComputeStats())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dnagen:", err)
	os.Exit(1)
}
