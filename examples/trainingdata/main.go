// Trainingdata: using the simulator as a synthetic data generator for
// learned reconstruction (§2.2.3: DNASimulator trained the DNAformer
// neural network; a better-calibrated simulator yields better training
// data). The program calibrates the full second-order model from a
// "real" dataset, then emits an arbitrarily large labeled corpus —
// (noisy cluster, reference) pairs — as a FASTA of references and a
// FASTQ of reads whose IDs carry the cluster labels.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dnastore/internal/channel"
	"dnastore/internal/profile"
	"dnastore/internal/seqio"
	"dnastore/internal/wetlab"
)

func main() {
	var (
		pairs   = flag.Int("pairs", 5000, "labeled clusters to emit")
		cov     = flag.Int("coverage", 10, "reads per cluster")
		refsOut = flag.String("refs", "train_refs.fasta", "reference FASTA path")
		readOut = flag.String("reads", "train_reads.fastq", "read FASTQ path")
		profOut = flag.String("profile", "profile.json", "fitted profile JSON path")
	)
	flag.Parse()
	if err := run(*pairs, *cov, *refsOut, *readOut, *profOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(pairs, cov int, refsOut, readOut, profOut string) error {
	// "Real" data to calibrate against: a modest wetlab sample.
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters = 1000
	real, err := wetlab.Generate(cfg)
	if err != nil {
		return err
	}
	prof, err := profile.Profile(real, profile.Options{})
	if err != nil {
		return err
	}
	fmt.Println("calibrated:", prof.Summary())

	// Persist the calibration next to the corpus for provenance.
	pf, err := os.Create(profOut)
	if err != nil {
		return err
	}
	if err := prof.WriteJSON(pf); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}

	// Generate the corpus with fresh references: the trained model must
	// generalise beyond the calibration strands.
	model := prof.SecondOrderModel("sdg", 10)
	refs := channel.RandomReferences(pairs, prof.StrandLen, 90210)
	sim := channel.Simulator{Channel: model, Coverage: channel.FixedCoverage(cov)}
	corpus := sim.Simulate("training", refs, 424242)

	rf, err := os.Create(refsOut)
	if err != nil {
		return err
	}
	qf, err := os.Create(readOut)
	if err != nil {
		rf.Close()
		return err
	}
	werr := seqio.WriteDataset(rf, qf, corpus, 20)
	if err := errors.Join(werr, rf.Close(), qf.Close()); err != nil {
		return err
	}
	fmt.Printf("wrote %d labeled clusters (%d reads) to %s + %s; calibration in %s\n",
		corpus.NumClusters(), corpus.NumReads(), refsOut, readOut, profOut)
	return nil
}
