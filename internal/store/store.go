// Package store models a DNA pool as the key-value store of §1.1.1
// (Yazdi et al. [25], Bornholt et al. [4]): every stored object is encoded
// into indexed, Reed–Solomon-protected strands, tagged with a unique PCR
// primer (the "filename"), and mixed into one physical pool. Retrieval
// amplifies by primer, clusters the selected reads, reconstructs each
// cluster and decodes — the full read path of the paper's Fig 1.1 as one
// reusable API, with the noisy channel injected by the caller.
package store

import (
	"context"
	"fmt"
	"sort"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/obs"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
)

// Options configure a Pool.
type Options struct {
	// Archive is the per-object strand layout; the zero value uses the
	// codec defaults.
	Archive codec.Archive
	// PrimerConfig constrains the key primers; the zero value uses the
	// codec defaults (length 20).
	PrimerConfig codec.PrimerConfig
	// Reconstructor rebuilds strands from read clusters (default: the
	// two-way Iterative algorithm).
	Reconstructor recon.Reconstructor
	// PrimerMismatch is the PCR selection tolerance in edit distance
	// (default 3).
	PrimerMismatch int
	// Seed drives primer generation.
	Seed uint64
}

// Pool is a single DNA storage pool holding multiple keyed objects.
type Pool struct {
	opts    Options
	rng     *rng.RNG
	keys    map[string]int // key -> index into primers/objects
	primers []dna.Strand
	objects [][]dna.Strand // designed payload strands per object (untagged)
}

// New creates an empty pool.
func New(opts Options) *Pool {
	if opts.Reconstructor == nil {
		opts.Reconstructor = recon.NewTwoWayIterative()
	}
	if opts.PrimerMismatch <= 0 {
		opts.PrimerMismatch = 3
	}
	return &Pool{
		opts: opts,
		rng:  rng.New(opts.Seed ^ 0xd1a5704e5),
		keys: make(map[string]int),
	}
}

// Store encodes data under the given key, assigning it a fresh primer.
// Keys must be unique and data non-empty.
func (p *Pool) Store(key string, data []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	if _, exists := p.keys[key]; exists {
		return fmt.Errorf("store: key %q already stored", key)
	}
	strands, err := p.opts.Archive.Encode(data)
	if err != nil {
		return fmt.Errorf("store: encoding %q: %w", key, err)
	}
	primer, err := p.newPrimer()
	if err != nil {
		return fmt.Errorf("store: primer for %q: %w", key, err)
	}
	p.keys[key] = len(p.primers)
	p.primers = append(p.primers, primer)
	p.objects = append(p.objects, strands)
	return nil
}

// newPrimer draws a primer distant from every existing one.
func (p *Pool) newPrimer() (dna.Strand, error) {
	cfg := p.opts.PrimerConfig
	const attempts = 20000
	minDist := 2*p.opts.PrimerMismatch + 2 // amplification windows must not overlap
	var pat align.Pattern                  // the candidate, scanned against every primer
	for a := 0; a < attempts; a++ {
		cands, err := codec.GeneratePrimers(1, cfg, p.rng)
		if err != nil {
			return "", err
		}
		cand := cands[0]
		pat.Reset(string(cand))
		ok := true
		for _, existing := range p.primers {
			if _, within := pat.DistanceAtMost(string(existing), minDist-1); within {
				ok = false
				break
			}
		}
		if ok {
			return cand, nil
		}
	}
	return "", fmt.Errorf("store: primer space exhausted after %d objects", len(p.primers))
}

// Keys returns the stored keys in sorted order.
func (p *Pool) Keys() []string {
	out := make([]string, 0, len(p.keys))
	for k := range p.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DesignedStrands returns every tagged strand in the pool — the synthesis
// order sheet. Strand order carries no meaning.
func (p *Pool) DesignedStrands() []dna.Strand {
	var out []dna.Strand
	for i, strands := range p.objects {
		out = append(out, codec.Tag(p.primers[i], strands)...)
	}
	return out
}

// NumStrands returns the pool's designed strand count.
func (p *Pool) NumStrands() int {
	n := 0
	for _, strands := range p.objects {
		n += len(strands)
	}
	return n
}

// Retrieve recovers the object stored under key from a pool-wide
// sequencing read-out (unordered noisy reads of the *tagged* strands):
// PCR selection by the key's primer, similarity clustering,
// reconstruction and archive decoding. It is RetrieveReport without the
// erasure report.
func (p *Pool) Retrieve(key string, reads []dna.Strand) ([]byte, error) {
	data, _, err := p.RetrieveReport(key, reads)
	return data, err
}

// RetrieveReport is Retrieve plus a per-strand erasure/repair report: how
// many designed strands came back clean, were repaired by per-strand RS,
// were erased and rebuilt from group parity, or were lost outright. The
// report is always meaningful, including on failure, so callers can
// surface exactly which strands an unrecoverable object is missing.
func (p *Pool) RetrieveReport(key string, reads []dna.Strand) ([]byte, RetrieveReport, error) {
	return p.retrieve(context.Background(), key, reads)
}

// retrieve is RetrieveReport under a context whose stage timer, if any,
// records the clustering and reconstruction steps ("store.cluster",
// "store.reconstruct"). Clusters are reconstructed in parallel.
func (p *Pool) retrieve(ctx context.Context, key string, reads []dna.Strand) ([]byte, RetrieveReport, error) {
	rep := RetrieveReport{Key: key}
	idx, ok := p.keys[key]
	if !ok {
		return nil, rep, fmt.Errorf("store: unknown key %q", key)
	}
	rep.TotalStrands = len(p.objects[idx])
	primer := p.primers[idx]
	selected := codec.SelectAmplify(reads, primer, p.opts.PrimerMismatch)
	rep.ReadsSelected = len(selected)
	if len(selected) == 0 {
		rep.Unrecovered = allStrandIndexes(rep.TotalStrands)
		return nil, rep, fmt.Errorf("store: no reads amplified for key %q", key)
	}
	timer := obs.TimerFrom(ctx)
	stop := timer.Start("store.cluster")
	clusters := cluster.Greedy(selected, cluster.Config{})
	stop(len(selected))
	rep.Clusters = len(clusters) // greedy clusters are never empty
	stop = timer.Start("store.reconstruct")
	recovered := recon.ReconstructAll(p.opts.Reconstructor, clusters, p.opts.Archive.StrandLength())
	stop(len(clusters))
	data, dr, err := p.opts.Archive.DecodeReport(recovered)
	rep.Clean, rep.Repaired, rep.Erased = dr.Clean, dr.Repaired, dr.Erased
	rep.Unrecovered = dr.Unrecovered
	if err != nil {
		if dr.TotalChunks == 0 {
			// Decoding never framed the layout; every strand is lost.
			rep.Unrecovered = allStrandIndexes(rep.TotalStrands)
		}
		return nil, rep, fmt.Errorf("store: decoding %q: %w", key, err)
	}
	return data, rep, nil
}

// allStrandIndexes lists 0..n-1, the "everything lost" erasure set.
func allStrandIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Sequence pushes the whole pool through a noisy channel at the given
// coverage and returns the shuffled read pool — the wetlab read-out that
// Retrieve consumes. It is a convenience for tests and simulations; real
// deployments would read FASTQ instead.
func (p *Pool) Sequence(ch channel.Channel, cov channel.CoverageModel, seed uint64) []dna.Strand {
	sim := channel.Simulator{Channel: ch, Coverage: cov}
	ds := sim.Simulate("pool", p.DesignedStrands(), seed)
	return ds.AllReads(rng.New(seed + 1))
}

// SequenceCtx is Sequence under a context: cancellation stops the
// simulated sequencing run between clusters, and per-cluster channel
// panics degrade to missing reads instead of killing the process. The
// partial read pool is returned alongside any *channel.SimulationError.
func (p *Pool) SequenceCtx(ctx context.Context, ch channel.Channel, cov channel.CoverageModel, seed uint64) ([]dna.Strand, error) {
	sim := channel.Simulator{Channel: ch, Coverage: cov}
	ds, err := sim.SimulateCtx(ctx, "pool", p.DesignedStrands(), seed)
	if ds == nil {
		return nil, err
	}
	return ds.AllReads(rng.New(seed + 1)), err
}
