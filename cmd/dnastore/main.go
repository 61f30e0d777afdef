// Command dnastore drives the key-value store (§1.1.1): files are stored
// under keys in a designed DNA pool persisted as JSON, and retrieved back
// through a simulated noisy sequencing run — PCR selection by the key's
// primer, clustering, trace reconstruction and Reed–Solomon decoding.
//
// Usage:
//
//	dnastore put  -pool pool.json -key report.pdf -file report.pdf
//	dnastore ls   -pool pool.json
//	dnastore get  -pool pool.json -key report.pdf -o out.pdf -error 0.03 -coverage 14
//
// get runs the resilient read path: on decode failure it re-sequences with
// escalated coverage (-retries, -backoff) and a fresh derived seed before
// giving up with an erasure report. -faults injects pathological channel
// conditions (cluster dropout, read truncation, contamination, dead
// regions) for drills — see internal/faults for the spec syntax.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/dist"
	"dnastore/internal/durable"
	"dnastore/internal/obs"
	"dnastore/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "put":
		err = cmdPut(os.Args[2:])
	case "ls":
		err = cmdLs(os.Args[2:])
	case "get":
		err = cmdGet(os.Args[2:])
	case "scrub":
		err = cmdScrub(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnastore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `dnastore — a DNA pool as a key-value store

subcommands:
  put  -pool <file> -key <key> -file <path>   store a file (creates the pool if absent)
  ls   -pool <file>                           list stored keys
  get  -pool <file> -key <key> -o <path>      retrieve through a simulated sequencing run
       [-error 0.02] [-coverage 14] [-seed 7] [-skew]
       [-faults dropout=0.1,truncate=0.3:0.5,contam=0.02,zerocov=4:2]
       [-retries 2] [-backoff 2.0] [-timeout 30s]
  scrub [-repair] <file|dir> ...              verify container checksums; -repair rewrites
                                              what Reed-Solomon parity can restore
                                              (journals — checkpoints, ledgers — are
                                              verify-only: a rewrite would add a footer)`)
}

// loadOrNewPool opens an existing pool file or creates a fresh pool.
func loadOrNewPool(path string, seed uint64) (*store.Pool, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return store.New(store.Options{
			Archive: codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6},
			Seed:    seed,
		}), nil
	} else if err != nil {
		return nil, err
	}
	return loadPool(path)
}

// loadPool reads a pool file — durable container or legacy bare JSON, with
// a deprecation nudge for the latter.
func loadPool(path string) (*store.Pool, error) {
	p, legacy, err := store.LoadFile(path)
	if legacy && err == nil {
		fmt.Fprintf(os.Stderr, "dnastore: %s is a legacy JSON pool without checksums; re-save (e.g. via put) to upgrade\n", path)
	}
	return p, err
}

func cmdPut(args []string) error {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	pool := fs.String("pool", "pool.json", "pool file")
	key := fs.String("key", "", "object key (required)")
	file := fs.String("file", "", "file to store (required)")
	seed := fs.Uint64("seed", 7, "primer seed for a new pool")
	logOpts := obs.LogFlags(fs)
	fs.Parse(args)
	if *key == "" || *file == "" {
		return fmt.Errorf("put needs -key and -file")
	}
	logger := logOpts.Logger("dnastore")
	p, err := loadOrNewPool(*pool, *seed)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	if err := p.Store(*key, data); err != nil {
		return err
	}
	if err := p.SaveFile(*pool); err != nil {
		return err
	}
	logger.Debug("object stored", "key", *key, "bytes", len(data),
		"objects", len(p.Keys()), "strands", p.NumStrands())
	fmt.Fprintf(os.Stderr, "stored %q (%d bytes) — pool now holds %d objects in %d strands\n",
		*key, len(data), len(p.Keys()), p.NumStrands())
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	pool := fs.String("pool", "pool.json", "pool file")
	fs.Parse(args)
	p, err := loadPool(*pool)
	if err != nil {
		return err
	}
	for _, k := range p.Keys() {
		fmt.Println(k)
	}
	fmt.Fprintf(os.Stderr, "%d objects, %d designed strands\n", len(p.Keys()), p.NumStrands())
	return nil
}

func cmdGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	pool := fs.String("pool", "pool.json", "pool file")
	key := fs.String("key", "", "object key (required)")
	out := fs.String("o", "", "output file (required)")
	errRate := fs.Float64("error", 0.02, "sequencing error rate")
	coverage := fs.Float64("coverage", 14, "mean sequencing coverage")
	seed := fs.Uint64("seed", 7, "sequencing seed")
	skew := fs.Bool("skew", false, "apply the Nanopore terminal error skew")
	faultSpec := fs.String("faults", "", "fault injection spec (e.g. dropout=0.1,truncate=0.3)")
	retries := fs.Int("retries", 2, "re-sequencing attempts after a failed decode")
	backoff := fs.Float64("backoff", 2.0, "coverage escalation factor per retry")
	timeout := fs.Duration("timeout", 0, "give up on the retrieval after this long (0 = unbounded)")
	logOpts := obs.LogFlags(fs)
	fs.Parse(args)
	if *key == "" || *out == "" {
		return fmt.Errorf("get needs -key and -o")
	}
	if err := store.CheckRetrieve([4]string{"-error", "-coverage", "-retries", "-backoff"},
		*errRate, *coverage, *retries, *backoff); err != nil {
		return err
	}
	logger := logOpts.Logger("dnastore")
	faults, err := channel.ParseFaults(*faultSpec)
	if err != nil {
		return err
	}
	p, err := loadPool(*pool)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	stages := obs.NewStageTimer()
	ctx = obs.WithTimer(ctx, stages)
	defer func() {
		if summary := stages.Summary(); summary != "" {
			logger.Debug("stage timings", "stages", summary)
		}
	}()

	factory := func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
		m := channel.NewNaive("sequencer", channel.NanoporeMix(*errRate))
		if *skew {
			m = m.WithSpatial(dist.NanoporeSkew())
		}
		mean := *coverage * scale
		fmt.Fprintf(os.Stderr, "attempt %d: sequencing at %.1fx coverage, %.1f%% error\n",
			attempt, mean, *errRate*100)
		return faults.Bind(m, channel.NegBinCoverage{Mean: mean, Dispersion: 6})
	}
	pol := store.RetryPolicy{
		MaxAttempts: *retries + 1,
		Backoff:     *backoff,
		OnAttempt: func(attempt int, rep store.RetrieveReport, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "attempt %d failed: %v\n", attempt, err)
			}
		},
	}
	data, rep, attempts, err := p.RetrieveAdaptive(ctx, *key, factory, pol, *seed)
	if err != nil {
		var pre *store.PartialRecoveryError
		if errors.As(err, &pre) {
			// Surface the erasure report before the non-zero exit so
			// operators see exactly which strands are gone, not just a
			// decode error.
			fmt.Fprintf(os.Stderr, "erasure report after %d attempts: %s\n", attempts, rep.Summary())
			// "Told to stop" reads differently from "gave up": a canceled
			// or timed-out retrieval is not evidence the data is gone.
			if pre.Canceled() {
				if errors.Is(pre.Err, context.DeadlineExceeded) {
					return fmt.Errorf("get %q timed out after %s", *key, *timeout)
				}
				return fmt.Errorf("get %q interrupted", *key)
			}
		}
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recovered %q: %d bytes -> %s (attempt %d; %s)\n",
		*key, len(data), *out, attempts, rep.Summary())
	return nil
}

// cmdScrub verifies (and with -repair, restores) durable container files.
// Arguments are files or directories; directories are walked recursively.
// The exit status is non-zero if any file is left damaged.
func cmdScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	repair := fs.Bool("repair", false, "rewrite files whose damage is within the parity budget")
	logOpts := obs.LogFlags(fs)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("scrub needs at least one file or directory")
	}
	logger := logOpts.Logger("dnastore")
	var paths []string
	for _, root := range fs.Args() {
		info, err := os.Stat(root)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			paths = append(paths, root)
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				paths = append(paths, p)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	scrub := durable.ScrubFile
	if *repair {
		scrub = durable.RepairFile
	}
	unhealthy := 0
	for _, path := range paths {
		rep, err := scrub(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s\n", path, rep.Summary())
		for _, s := range rep.Sections {
			if s.Status != durable.SectionOK {
				fmt.Printf("  section %d %q (%d bytes): %s", s.Index, s.Name, s.Bytes, s.Status)
				if s.Status == durable.SectionRepaired {
					fmt.Printf(" (%d symbols corrected)", s.Corrected)
				}
				fmt.Println()
			}
		}
		healthy := rep.Intact() || rep.Legacy
		if *repair && rep.Damaged() && rep.Repairable() {
			healthy = true
			fmt.Printf("  repaired: %s rewritten from parity\n", path)
		}
		if !healthy {
			unhealthy++
		}
	}
	logger.Debug("scrub complete", "files", len(paths), "damaged", unhealthy, "repair", *repair)
	if unhealthy > 0 {
		return fmt.Errorf("scrub: %d of %d files damaged", unhealthy, len(paths))
	}
	return nil
}
