package channel

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/rng"
)

// Simulator pairs a noisy channel with a coverage model to turn reference
// strands into a full clustered dataset — the end-to-end operation the
// paper's problem definition (§2.3) formalises as
// (Σ_L)^N → (Σ*)^M.
type Simulator struct {
	// Channel perturbs individual strands.
	Channel Channel
	// Coverage decides reads per cluster.
	Coverage CoverageModel
}

// ClusterError records a single cluster whose simulation failed — most
// commonly a panicking Channel implementation, which SimulateCtx isolates
// per cluster instead of letting it tear down the process.
type ClusterError struct {
	// Index is the cluster (reference strand) index.
	Index int
	// Err is the recovered failure.
	Err error
}

// Error implements error.
func (e ClusterError) Error() string { return fmt.Sprintf("cluster %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying failure.
func (e ClusterError) Unwrap() error { return e.Err }

// ProgressFunc observes simulation progress: it is called after every
// completed (or checkpoint-restored) cluster with the number completed so
// far and the total requested. Calls come from simulation worker
// goroutines concurrently, so implementations must be safe for concurrent
// use — typically an atomic timestamp or counter. The dnasimd worker in
// internal/server stamps a job's progress with it, and its stall timer
// reads the stamp to detect stalled attempts.
type ProgressFunc func(completed, total int)

// progressKey carries a ProgressFunc through a context.
type progressKey struct{}

// WithProgress returns a context that makes every SimulateCtx,
// SimulateRange or Pool sequencing run under it report per-cluster
// progress to fn. The hook rides the context rather than the Simulator so
// that callers several layers up (an HTTP job server timing out stalled
// work) can observe progress without threading a parameter through every
// intermediate API.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the progress hook, nil when absent.
func progressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

// SimulationError aggregates everything that cut a SimulateCtx run short.
// The dataset returned alongside it is still structurally valid: failed and
// skipped clusters degrade to their reference with zero reads, so partial
// results can be written out or decoded with erasure handling.
type SimulationError struct {
	// Canceled is the context error when the run was interrupted, nil when
	// only per-cluster failures occurred.
	Canceled error
	// Clusters lists the per-cluster failures in index order.
	Clusters []ClusterError
	// Completed and Total count fully simulated clusters versus requested.
	Completed, Total int
}

// Error implements error.
func (e *SimulationError) Error() string {
	switch {
	case e.Canceled != nil && len(e.Clusters) > 0:
		return fmt.Sprintf("channel: simulation canceled after %d/%d clusters (%v) with %d cluster failures (first: %v)",
			e.Completed, e.Total, e.Canceled, len(e.Clusters), e.Clusters[0])
	case e.Canceled != nil:
		return fmt.Sprintf("channel: simulation canceled after %d/%d clusters: %v", e.Completed, e.Total, e.Canceled)
	case len(e.Clusters) == 1:
		return fmt.Sprintf("channel: simulation completed %d/%d clusters: %v", e.Completed, e.Total, e.Clusters[0])
	default:
		return fmt.Sprintf("channel: simulation completed %d/%d clusters: %d cluster failures (first: %v)",
			e.Completed, e.Total, len(e.Clusters), e.Clusters[0])
	}
}

// Unwrap exposes the context error and each per-cluster error to
// errors.Is/errors.As.
func (e *SimulationError) Unwrap() []error {
	var errs []error
	if e.Canceled != nil {
		errs = append(errs, e.Canceled)
	}
	for _, ce := range e.Clusters {
		errs = append(errs, ce)
	}
	return errs
}

// Simulate produces one dataset. Each cluster's reads are generated from an
// RNG split deterministically from the seed and cluster index, so results
// are reproducible and independent of parallelism.
//
// Simulate is the legacy fail-fast wrapper around SimulateCtx: it panics on
// a missing Channel or CoverageModel and on any per-cluster failure,
// preserving the original "simulation is infallible" contract for callers
// that want no error plumbing. Use SimulateCtx for cancellation, panic
// isolation and partial results.
func (s Simulator) Simulate(name string, refs []dna.Strand, seed uint64) *dataset.Dataset {
	ds, err := s.SimulateCtx(context.Background(), name, refs, seed)
	if err != nil {
		panic(err)
	}
	return ds
}

// SimulateCtx produces one dataset under a context. Cancellation is honored
// between clusters: workers stop picking up new clusters once ctx is done,
// and the partial dataset (completed clusters populated, the rest degraded
// to zero reads) is returned together with a *SimulationError whose
// Canceled field carries ctx.Err(). A panic inside Channel.AppendTransmit or
// CoverageModel.Sample is confined to its cluster and surfaces as a
// ClusterError instead of killing the process.
//
// Output is byte-identical to Simulate for a run that completes without
// faults: the same per-cluster RNG split scheme applies.
func (s Simulator) SimulateCtx(ctx context.Context, name string, refs []dna.Strand, seed uint64) (*dataset.Dataset, error) {
	return s.SimulateRange(ctx, name, refs, seed, 0, len(refs), nil)
}

// SimulateRange simulates the cluster range [first, first+count) of refs,
// returning a dataset with exactly count clusters in range order. Every
// cluster's RNG derives from its global index, so the concatenation of
// range datasets covering [0, len(refs)) is byte-identical to one
// SimulateCtx run over the whole reference set — the property that makes
// cluster-range sharding across a fleet of nodes merge-safe.
//
// A non-nil ckpt adds durable progress: clusters already in it are
// restored without re-simulation, and each newly completed cluster is
// committed to the journal before it counts as done; a failed Commit
// surfaces as that cluster's ClusterError. Output is byte-identical to an
// uninterrupted run with the same arguments. Because the journal identity
// binds to the full reference set and frames carry global indices, a
// shard journal written by one node can be resumed by another node holding
// the same spec — the handoff mechanism the fleet coordinator uses when a
// worker dies mid-shard on a shared data directory. A nil ckpt journals
// nothing.
func (s Simulator) SimulateRange(ctx context.Context, name string, refs []dna.Strand, seed uint64, first, count int, ckpt *Checkpoint) (*dataset.Dataset, error) {
	if s.Channel == nil {
		return nil, fmt.Errorf("channel: Simulator without a Channel")
	}
	if s.Coverage == nil {
		return nil, fmt.Errorf("channel: Simulator without a CoverageModel")
	}
	if first < 0 || count < 0 || first+count > len(refs) {
		return nil, fmt.Errorf("channel: cluster range [%d, %d) outside [0, %d)", first, first+count, len(refs))
	}
	ds := &dataset.Dataset{Name: name, Clusters: make([]dataset.Cluster, count)}
	for i := range ds.Clusters {
		// Pre-fill references so skipped or failed clusters degrade to an
		// empty cluster rather than a hole.
		ds.Clusters[i].Ref = refs[first+i]
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		clusterErrs []ClusterError
		completed   atomic.Int64
	)
	// Stage accounting: total simulation wall time and clusters completed,
	// reported to whatever timer rides the context (nil-safe no-op
	// otherwise). Items are read at stop time, after the workers join.
	stop := obs.TimerFrom(ctx).Start("channel.simulate")
	defer func() { stop(int(completed.Load())) }()
	progress := progressFrom(ctx)
	total := count
	advance := func() {
		n := completed.Add(1)
		if progress != nil {
			progress(int(n), total)
		}
	}
	// Work-stealing cluster dispatch: every worker grabs the next
	// unclaimed index from a shared atomic counter. Static contiguous
	// chunking serialised badly under heavy-tailed coverage models
	// (NegBinCoverage draws occasionally demand 10× the mean reads, and
	// whichever worker owned that contiguous range finished last while the
	// rest idled); with index stealing the load balances automatically.
	// Output is unaffected: each cluster's RNG derives from (seed, index),
	// never from which worker ran it.
	//
	// Each worker owns one Scratch arena for its whole run: the reference
	// is decoded to base codes once per cluster, and every read is
	// generated into the reused output buffer.
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scr Scratch
			for {
				li := int(next.Add(1)) - 1
				if li >= count {
					return
				}
				if ctx.Err() != nil {
					return
				}
				gi := first + li // global cluster index: names the RNG split and journal frame
				if ckpt != nil {
					if reads, ok := ckpt.Done(gi); ok {
						// Already journaled by a previous run: restore
						// verbatim instead of re-simulating.
						ds.Clusters[li] = dataset.Cluster{Ref: refs[gi], Reads: reads}
						advance()
						continue
					}
				}
				if err := s.simulateCluster(ds, refs, gi, li, seed, &scr); err != nil {
					mu.Lock()
					clusterErrs = append(clusterErrs, ClusterError{Index: gi, Err: err})
					mu.Unlock()
					continue
				}
				if ckpt != nil {
					if err := ckpt.Commit(gi, ds.Clusters[li].Reads); err != nil {
						mu.Lock()
						clusterErrs = append(clusterErrs, ClusterError{Index: gi,
							Err: fmt.Errorf("checkpoint commit: %w", err)})
						mu.Unlock()
						continue
					}
				}
				advance()
			}
		}()
	}
	wg.Wait()
	sort.Slice(clusterErrs, func(i, j int) bool { return clusterErrs[i].Index < clusterErrs[j].Index })
	if ctxErr := ctx.Err(); ctxErr != nil || len(clusterErrs) > 0 {
		return ds, &SimulationError{
			Canceled:  ctxErr,
			Clusters:  clusterErrs,
			Completed: int(completed.Load()),
			Total:     count,
		}
	}
	return ds, nil
}

// simulateCluster generates the reads of global cluster gi into dataset
// slot li, converting a panic in the channel or coverage model into a
// returned error. scr is the calling worker's arena.
func (s Simulator) simulateCluster(ds *dataset.Dataset, refs []dna.Strand, gi, li int, seed uint64, scr *Scratch) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	// Per-cluster RNG derived from seed and global index keeps output
	// independent of worker scheduling — and of which range shard (if any)
	// the cluster was simulated in.
	r := rng.New(seed ^ (0x9e3779b97f4a7c15 * uint64(gi+1)))
	n := SampleFor(s.Coverage, refs[gi], gi, r)
	// Decode the reference once, generate every read into the arena's
	// single output buffer recording where each one ends, then materialise
	// the whole cluster as ONE immutable string and slice the per-read
	// Strands out of it. Strand slicing shares the backing array, so the
	// cluster costs two allocations (blob + reads slice) instead of one
	// per read — and the reads end up contiguous in memory, which
	// downstream alignment scans reward.
	codes := scr.RefBases(refs[gi])
	scr.out = scr.out[:0]
	scr.ends = scr.ends[:0]
	for k := 0; k < n; k++ {
		scr.out = s.Channel.AppendTransmit(scr.out, codes, r, scr)
		scr.ends = append(scr.ends, len(scr.out))
	}
	blob := dna.Strand(scr.out)
	reads := make([]dna.Strand, n)
	prev := 0
	for k, end := range scr.ends {
		reads[k] = blob[prev:end]
		prev = end
	}
	ds.Clusters[li] = dataset.Cluster{Ref: refs[gi], Reads: reads}
	return nil
}

// RandomReferences generates n uniformly random reference strands of the
// given length — the synthetic payload used throughout the evaluation.
func RandomReferences(n, length int, seed uint64) []dna.Strand {
	r := rng.New(seed)
	refs := make([]dna.Strand, n)
	buf := make([]byte, length)
	for i := range refs {
		for j := range buf {
			buf[j] = dna.Base(r.Intn(dna.NumBases)).Byte()
		}
		refs[i] = dna.Strand(string(buf))
	}
	return refs
}

// Describe returns a one-line description of the simulator configuration.
// Unlike SimulateCtx, which refuses to run a half-configured Simulator,
// Describe is diagnostic: an unset Channel or CoverageModel renders as
// "<unset>" instead of panicking, so it is safe in log and error paths.
func (s Simulator) Describe() string {
	ch, cov := "<unset>", "<unset>"
	if s.Channel != nil {
		ch = s.Channel.Name()
	}
	if s.Coverage != nil {
		cov = s.Coverage.Name()
	}
	return fmt.Sprintf("channel=%s coverage=%s", ch, cov)
}
