// Command dnasim simulates the noisy DNA storage channel: it reads
// reference strands (one per line), perturbs them with a configurable
// channel tier, and writes the resulting clustered dataset.
//
// The channel can be parameterised two ways:
//
//   - directly, with -sub/-ins/-del (+ optional -spatial and -longdel),
//   - as a multi-stage pipeline, with -stages (the stage directives of
//     the channel grammar, channel.ParseStages); pool stages bind over
//     the coverage model,
//   - or data-driven, with -calibrate <dataset>: the full calibration
//     pipeline of the paper fits the chosen -tier from real clusters.
//
// Usage:
//
//	dnasim -refs refs.txt -coverage 6 -sub 0.02 -ins 0.01 -del 0.03 -o sim.txt
//	dnasim -refs refs.txt -stages 'synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew' -o sim.txt
//	dnasim -refs refs.txt -calibrate nanopore.txt -tier second-order -o sim.txt
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/durable"
	"dnastore/internal/obs"
	"dnastore/internal/profile"
)

func main() {
	var (
		refsPath   = flag.String("refs", "", "reference strands file (one per line, required)")
		out        = flag.String("o", "-", "output clusters file (- for stdout)")
		coverage   = flag.Float64("coverage", 6, "fixed coverage, or the mean when -coverage-model is stochastic")
		covModel   = flag.String("coverage-model", "fixed", "coverage model: fixed, negbin, poisson, normal")
		sub        = flag.Float64("sub", 0, "substitution probability per base")
		ins        = flag.Float64("ins", 0, "insertion probability per base")
		del        = flag.Float64("del", 0, "deletion probability per base")
		spatial    = flag.String("spatial", "uniform", "spatial distribution: uniform, a-shape, v-shape, terminal-skew")
		longDel    = flag.Bool("longdel", false, "enable the paper's long-deletion burst model")
		stageSpec  = flag.String("stages", "", "multi-stage channel spec (e.g. synthesis=0.01,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.04:terminal-skew); excludes -sub/-ins/-del/-spatial")
		calibrate  = flag.String("calibrate", "", "clusters file to fit the channel from (overrides -sub/-ins/-del)")
		tier       = flag.String("tier", "second-order", "calibrated tier: naive, conditional, skew, second-order, dnasimulator, staged")
		seed       = flag.Uint64("seed", 1, "random seed")
		faultSpec  = flag.String("faults", "", "fault injection spec (e.g. dropout=0.1,truncate=0.3:0.5,contam=0.02,zerocov=10:5)")
		ckptPath   = flag.String("checkpoint", "", "journal completed clusters to this file; rerunning resumes instead of restarting")
		crashAfter = flag.Int("crash-after", 0, "crash drill: kill the process after N checkpoint commits (requires -checkpoint)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this long; the partial dataset is still written (0 = unbounded)")
		logOpts    = obs.LogFlags(flag.CommandLine)
	)
	flag.Parse()
	logger := logOpts.Logger("dnasim")
	if *refsPath == "" {
		fmt.Fprintln(os.Stderr, "dnasim: -refs is required")
		flag.Usage()
		os.Exit(2)
	}

	refs, err := readRefs(*refsPath)
	if err != nil {
		fail(err)
	}

	// channelFlags records the flags behind ch in canonical form; see the
	// checkpoint identity below.
	var ch channel.Channel
	var channelFlags string
	if *calibrate != "" {
		var digest string
		ch, digest, err = calibratedChannel(*calibrate, *tier)
		if err != nil {
			fail(err)
		}
		channelFlags = fmt.Sprintf("calibrate=%s sha256=%s tier=%s", *calibrate, digest, *tier)
	} else if stageList, err := channel.ParseStages(*stageSpec); err != nil {
		fail(err)
	} else if len(stageList) > 0 {
		// A blank -stages means no stages, as a blank -faults means no faults.
		if *sub != 0 || *ins != 0 || *del != 0 || *spatial != "uniform" {
			fail(errors.New("-stages is mutually exclusive with -sub/-ins/-del/-spatial"))
		}
		ch = stageList.Build("staged")
		channelFlags = "stages=" + stageList.String()
	} else {
		rates := channel.Rates{Sub: *sub, Ins: *ins, Del: *del}
		if err := rates.Validate(); err != nil {
			fail(err)
		}
		m := channel.NewNaive("dnasim", rates)
		if *longDel {
			m.LongDel = channel.PaperLongDeletion()
		}
		if *spatial != "uniform" {
			sp, err := dist.ByName(*spatial)
			if err != nil {
				fail(err)
			}
			m = m.WithSpatial(sp)
		}
		ch = m
		channelFlags = fmt.Sprintf("naive=%g:%g:%g spatial=%s longdel=%t", *sub, *ins, *del, *spatial, *longDel)
	}

	cov, err := channel.CoverageByName(*covModel, *coverage)
	if err != nil {
		fail(err)
	}
	faults, err := channel.ParseFaults(*faultSpec)
	if err != nil {
		fail(err)
	}
	// Checkpoint identity: Describe alone names models by label and rounds
	// their parameters, so a journal written under other -sub or -stages
	// values, or another calibration file, would resume into a mixed
	// dataset. The exact flags and the calibration digest join it.
	runFlags := fmt.Sprintf("%s coverage=%#v faults=%s", channelFlags, cov, faults)
	ch, cov = faults.Bind(ch, cov)

	// SIGINT drains gracefully: the simulator stops between clusters and
	// the partial dataset is still written out. -timeout bounds the run the
	// same way — deadline expiry behaves exactly like an interrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	stages := obs.NewStageTimer()
	ctx = obs.WithTimer(ctx, stages)

	sim := channel.Simulator{Channel: ch, Coverage: cov}
	if *crashAfter > 0 && *ckptPath == "" {
		fail(errors.New("-crash-after requires -checkpoint"))
	}
	var ckpt *channel.Checkpoint
	if *ckptPath != "" {
		ckpt, err = channel.OpenCheckpoint(*ckptPath, "simulated", refs, *seed, sim.Describe()+" "+runFlags)
		if err != nil {
			fail(err)
		}
		if n := ckpt.Completed(); n > 0 {
			fmt.Fprintf(os.Stderr, "dnasim: resuming from %s: %d/%d clusters already journaled\n",
				*ckptPath, n, len(refs))
		}
		if *crashAfter > 0 {
			// Crash drill: die as abruptly as a SIGKILL once N clusters have
			// been durably committed, leaving the checkpoint to prove itself.
			ckpt.OnCommit = func(commits int) {
				if commits >= *crashAfter {
					fmt.Fprintf(os.Stderr, "dnasim: crash drill after %d commits\n", commits)
					os.Exit(137)
				}
			}
		}
	}
	ds, simErr := sim.SimulateRange(ctx, "simulated", refs, *seed, 0, len(refs), ckpt)
	if ckpt != nil {
		ckpt.Close()
	}
	if ds == nil {
		fail(simErr)
	}

	// Output commits atomically (temp + fsync + rename), so an interrupted
	// run — including the SIGINT partial-dataset path — never leaves a
	// half-written file where a previous complete one stood.
	if *out == "-" {
		if err := ds.Write(os.Stdout); err != nil {
			fail(err)
		}
	} else if err := durable.WriteFileAtomic(*out, ds.Write); err != nil {
		fail(err)
	}
	if ckpt != nil && simErr == nil {
		// The dataset is durably on disk; the journal has served its purpose.
		if err := os.Remove(*ckptPath); err != nil {
			fmt.Fprintln(os.Stderr, "dnasim: removing checkpoint:", err)
		}
	}
	fmt.Fprintln(os.Stderr, sim.Describe())
	fmt.Fprintln(os.Stderr, ds.ComputeStats())
	if summary := stages.Summary(); summary != "" {
		logger.Debug("stage timings", "stages", summary)
	}
	if simErr != nil {
		var se *channel.SimulationError
		if errors.As(simErr, &se) {
			fmt.Fprintf(os.Stderr, "dnasim: partial dataset: %v\n", se)
		} else {
			fmt.Fprintln(os.Stderr, "dnasim:", simErr)
		}
		if errors.Is(simErr, context.Canceled) {
			os.Exit(130)
		}
		if errors.Is(simErr, context.DeadlineExceeded) {
			// Same convention as timeout(1).
			os.Exit(124)
		}
		os.Exit(1)
	}
}

func readRefs(path string) ([]dna.Strand, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadRefs(f)
}

// calibratedChannel fits the tier from the dataset at path. It also
// returns the hex SHA-256 of the file's bytes, so a checkpoint tells a
// calibration file edited in place from the one it was written under.
func calibratedChannel(path, tier string) (channel.Channel, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(data)
	ds, err := dataset.Read(bytes.NewReader(data))
	if err != nil {
		return nil, "", err
	}
	p, err := profile.Profile(ds, profile.Options{})
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintln(os.Stderr, "calibration:", p.Summary())
	var ch channel.Channel
	switch tier {
	case "naive":
		ch = p.NaiveModel("naive")
	case "conditional":
		ch = p.ConditionalModel("conditional")
	case "skew":
		ch = p.SkewedModel("skew")
	case "second-order":
		ch = p.SecondOrderModel("second-order", 10)
	case "dnasimulator":
		ch = p.DNASimulatorBaseline("dnasimulator")
	case "staged":
		ch = p.StagedPipeline("staged", 10)
	default:
		return nil, "", fmt.Errorf("unknown tier %q", tier)
	}
	return ch, hex.EncodeToString(sum[:]), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dnasim:", err)
	os.Exit(1)
}
