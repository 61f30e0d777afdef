// Command dnacluster groups an unordered pool of noisy reads by sequence
// similarity — the clustering step of the read pipeline (§1.1.2). Input is
// either a flat list of reads (one per line) or a clustered dataset whose
// grouping is discarded and re-derived; with references available the tool
// also reports clustering purity and the reconstruction-ready dataset.
//
// Usage:
//
//	dnacluster -in reads.txt -o clusters.txt
//	dnacluster -in dataset.txt -dataset -o reclustered.txt   # evaluates purity
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/durable"
	"dnastore/internal/obs"
	"dnastore/internal/rng"
)

func main() {
	var (
		in        = flag.String("in", "", "input file (required)")
		out       = flag.String("o", "-", "output file (- for stdout)")
		isDataset = flag.Bool("dataset", false, "input is a clustered dataset: shuffle, re-cluster, report purity")
		k         = flag.Int("k", 0, "minimizer k-mer length (0 = default)")
		sigs      = flag.Int("signatures", 0, "minimizers per read (0 = default)")
		threshold = flag.Int("threshold", 0, "edit-distance join threshold (0 = len/4)")
		maxDist   = flag.Int("max-ref-dist", 40, "max edit distance when assigning clusters to references")
		seed      = flag.Uint64("seed", 1, "shuffle seed")
		logOpts   = obs.LogFlags(flag.CommandLine)
	)
	flag.Parse()
	logger := logOpts.Logger("dnacluster")
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dnacluster: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	// A negative count is a typo, not a request: the clusterer would take
	// its default for it, and the assignment would accept no reference.
	for _, f := range []struct {
		name string
		v    int
	}{{"k", *k}, {"signatures", *sigs}, {"threshold", *threshold}, {"max-ref-dist", *maxDist}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "dnacluster: -%s must not be negative, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}
	cfg := cluster.Config{K: *k, Signatures: *sigs, Threshold: *threshold}

	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()

	if *isDataset {
		ds, err := dataset.Read(f)
		if err != nil {
			fail(err)
		}
		pool, labels := cluster.LabeledPool(ds)
		r := rng.New(*seed)
		r.Shuffle(len(pool), func(i, j int) {
			pool[i], pool[j] = pool[j], pool[i]
			labels[i], labels[j] = labels[j], labels[i]
		})
		start := time.Now()
		idx := cluster.GreedyIndices(pool, cfg)
		logger.Debug("clustered", "reads", len(pool), "clusters", len(idx),
			"elapsed", time.Since(start).Round(time.Millisecond))
		purity, err := cluster.Purity(idx, labels)
		if err != nil {
			fail(err)
		}
		groups := make([][]dna.Strand, len(idx))
		for i, members := range idx {
			for _, m := range members {
				groups[i] = append(groups[i], pool[m])
			}
		}
		re := cluster.AssignToReferences(groups, ds.References(), *maxDist)
		fmt.Fprintf(os.Stderr, "clusters %d (from %d reads), purity %.4f, assigned %d reads\n",
			len(idx), len(pool), purity, re.NumReads())
		if err := writeOutput(*out, re.Write); err != nil {
			fail(err)
		}
		return
	}

	var pool []dna.Strand
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		s := dna.Strand(line)
		if err := s.Validate(); err != nil {
			fail(err)
		}
		pool = append(pool, s)
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	start := time.Now()
	groups := cluster.Greedy(pool, cfg)
	logger.Debug("clustered", "reads", len(pool), "clusters", len(groups),
		"elapsed", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "clustered %d reads into %d clusters\n", len(pool), len(groups))
	err = writeOutput(*out, func(w io.Writer) error {
		for i, members := range groups {
			fmt.Fprintf(w, "# cluster %d (%d reads)\n", i, len(members))
			for _, m := range members {
				fmt.Fprintln(w, m)
			}
			fmt.Fprintln(w)
		}
		return nil // w is buffered: a write error surfaces at its flush
	})
	if err != nil {
		fail(err)
	}
}

// writeOutput writes through write to stdout for "-", else atomically to
// path, so a run that fails — on its input or mid-write — leaves no
// output file behind.
func writeOutput(path string, write func(io.Writer) error) error {
	if path != "-" {
		return durable.WriteFileAtomic(path, write)
	}
	bw := bufio.NewWriter(os.Stdout)
	if err := write(bw); err != nil {
		return err
	}
	return bw.Flush()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dnacluster:", err)
	os.Exit(1)
}
