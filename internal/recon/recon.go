// Package recon implements the trace-reconstruction algorithms the paper
// evaluates simulators with: BMA Look-Ahead (two-way, Batu et al. [3]),
// the one-way Iterative algorithm (Sabary et al. [21]), Divider BMA,
// center-star MSA, plain per-position majority, and the Two-Way and
// Weighted Iterative variants the paper's §4.3 proposes as future work. BMA and the Iterative family run one look-ahead
// pass (pass); the Iterative family and MSA refine with one loop (refine).
//
// A trace-reconstruction algorithm receives the cluster of noisy copies of
// one reference strand and estimates the reference. Per the DNA-storage
// setting, the designed strand length L is known to the decoder.
package recon

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
)

// Reconstructor estimates a reference strand from its cluster of noisy
// copies. Implementations must be deterministic and safe for concurrent
// use.
type Reconstructor interface {
	// Reconstruct returns the estimate for a cluster whose designed strand
	// length is length. An empty cluster yields the empty strand (erasure).
	Reconstruct(cluster []dna.Strand, length int) dna.Strand
	// Name identifies the algorithm in tables.
	Name() string
}

// ReconstructDataset runs the algorithm over every cluster, in parallel,
// and returns one estimate per cluster in order. The designed length is
// taken from each cluster's reference strand (known to the storage system
// by design, never read from the noisy copies).
func ReconstructDataset(rec Reconstructor, ds *dataset.Dataset) []dna.Strand {
	return ReconstructDatasetCtx(context.Background(), rec, ds)
}

// ReconstructDatasetCtx is ReconstructDataset under a context, recording
// total wall time and cluster throughput to any stage timer the context
// carries (series "recon.<algorithm>"). The context is observability
// plumbing only: reconstruction is CPU-bound over in-memory clusters, so
// cancellation is not checked mid-run.
func ReconstructDatasetCtx(ctx context.Context, rec Reconstructor, ds *dataset.Dataset) []dna.Strand {
	defer obs.TimerFrom(ctx).Start("recon." + rec.Name())(len(ds.Clusters))
	out := make([]dna.Strand, len(ds.Clusters))
	parallelFor(len(ds.Clusters), func(i int) {
		c := ds.Clusters[i]
		out[i] = rec.Reconstruct(c.Reads, c.Ref.Len())
	})
	return out
}

// ReconstructAll runs the algorithm over every cluster, in parallel, and
// returns one estimate per cluster in order; every cluster has the
// designed strand length length. It is the reconstruct step of a store
// get.
func ReconstructAll(rec Reconstructor, clusters [][]dna.Strand, length int) []dna.Strand {
	out := make([]dna.Strand, len(clusters))
	parallelFor(len(clusters), func(i int) {
		out[i] = rec.Reconstruct(clusters[i], length)
	})
	return out
}

// parallelFor calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns when all calls have.
//
// Work-stealing dispatch (mirroring channel.SimulateRange): cluster sizes
// are heavy-tailed under realistic coverage, so contiguous chunking left
// one worker grinding the big clusters while the others sat idle; a shared
// atomic index balances the load. Reconstructors are deterministic, so
// assignment order cannot affect results.
func parallelFor(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// voteCounts tallies base votes; index by dna.Base.
type voteCounts [dna.NumBases]int

// add registers one vote for base b.
func (v *voteCounts) add(b dna.Base) { v[b]++ }

// winner returns the base with the most votes; ties break toward the
// alphabetically first base (deterministic). ok is false when no votes
// were cast.
func (v *voteCounts) winner() (dna.Base, bool) {
	best, bestN := dna.Base(0), 0
	for b := dna.Base(0); b < dna.NumBases; b++ {
		if v[b] > bestN {
			best, bestN = b, v[b]
		}
	}
	return best, bestN > 0
}

// ByName returns a built-in reconstructor configured with defaults, for
// CLI flag parsing. Known names: majority, bma, bma-oneway, iterative,
// iterative-sweep (Iterative's one-way pass without refinement, which is
// bma-oneway), iterative-twoway, iterative-weighted, divbma, msa.
func ByName(name string) (Reconstructor, bool) {
	switch name {
	case "majority":
		return Majority{}, true
	case "bma":
		return NewBMA(), true
	case "bma-oneway", "iterative-sweep":
		return NewOneWayBMA(), true
	case "iterative":
		return NewIterative(), true
	case "iterative-twoway":
		return NewTwoWayIterative(), true
	case "iterative-weighted":
		return NewWeightedIterative(), true
	case "divbma":
		return NewDividerBMA(), true
	case "msa":
		return NewMSA(), true
	default:
		return nil, false
	}
}

// All returns the default-configured instances of every algorithm, in the
// order the paper's tables list them.
func All() []Reconstructor {
	return []Reconstructor{NewBMA(), NewDividerBMA(), NewIterative(), NewTwoWayIterative(), NewWeightedIterative(), NewMSA(), Majority{}}
}

// reverseCluster returns a new slice with every copy reversed, the
// reversed copies cut from one string.
func reverseCluster(cluster []dna.Strand) []dna.Strand {
	size := 0
	for _, c := range cluster {
		size += c.Len()
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, c := range cluster {
		for k := c.Len() - 1; k >= 0; k-- {
			sb.WriteByte(c[k])
		}
	}
	all := dna.Strand(sb.String())
	out := make([]dna.Strand, len(cluster))
	for i, c := range cluster {
		out[i], all = all[:c.Len()], all[c.Len():]
	}
	return out
}

// spliceHalves concatenates the first half of forward with the second half
// of backward — the two-way combination rule the paper describes for BMA
// (§3.2: "The first half of the forward execution is concatenated with the
// first half of the backward execution", the latter covering the strand's
// tail once un-reversed).
func spliceHalves(forward, backward dna.Strand, length int) dna.Strand {
	mid := length / 2
	f := forward
	if f.Len() > length {
		f = f[:length]
	}
	b := backward
	if b.Len() > length {
		b = b[b.Len()-length:]
	}
	// Pad pathological short outputs so slicing stays in range.
	for f.Len() < length {
		f += "A"
	}
	for b.Len() < length {
		b = "A" + b
	}
	return f[:mid] + b[mid:]
}
