// Package faults provides composable fault injectors for the DNA storage
// pipeline. Real pools exhibit pathologies the happy-path simulator never
// produces on demand: whole clusters vanish (failed PCR, storage decay —
// Heckel et al. report strand dropout as a first-order effect), reads stop
// short (polymerase drop-off, aborted nanopore passes), contamination
// bursts inject alien or chimeric sequence, and synthesis defects zero out
// contiguous plate regions.
//
// Each injector wraps an existing channel.Channel or channel.CoverageModel
// (cluster dropout is channel.ErasureCoverage) and draws only from the RNG
// it is handed, so faulted datasets stay deterministic under the
// simulator's split-RNG scheme: same seed + same fault spec ⇒
// byte-identical output. A Spec parses the CLI-facing
// `-faults` string into a bundle of injectors, and CorruptPool damages
// serialized pool files for exercising loader hardening.
package faults

import (
	"fmt"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// ZeroCoverageRegion zeroes every cluster whose index lies in
// [Start, Start+Len), modelling a spatially localised synthesis or plate
// failure. It is fully deterministic — no RNG draw — which makes it the
// injector of choice for tests that must erase exactly known strands.
type ZeroCoverageRegion struct {
	// Base supplies coverage outside the dead region.
	Base channel.CoverageModel
	// Start and Len delimit the dead cluster-index region.
	Start, Len int
}

// Sample implements channel.CoverageModel: SampleRef without a reference.
func (z ZeroCoverageRegion) Sample(i int, r *rng.RNG) int {
	return z.SampleRef("", i, r)
}

// SampleRef implements channel.RefAwareCoverage: outside the dead region
// the base count for ref.
func (z ZeroCoverageRegion) SampleRef(ref dna.Strand, i int, r *rng.RNG) int {
	if i >= z.Start && i < z.Start+z.Len {
		return 0
	}
	return channel.SampleFor(z.Base, ref, i, r)
}

// Name implements channel.CoverageModel.
func (z ZeroCoverageRegion) Name() string {
	return fmt.Sprintf("%s+zerocov(%d:%d)", z.Base.Name(), z.Start, z.Len)
}

// ReadTruncation wraps a Channel and cuts reads short: with probability P
// per read, only a prefix survives, its fraction drawn uniformly from
// [MinFrac, 1). Models polymerase drop-off and aborted sequencing passes,
// which preferentially destroy strand suffixes.
type ReadTruncation struct {
	// Base produces the untruncated read.
	Base channel.Channel
	// P is the per-read truncation probability.
	P float64
	// MinFrac is the shortest surviving prefix fraction (default 0.2).
	MinFrac float64
}

// AppendTransmit implements channel.Channel: the base read is appended to
// dst, then cut back in place.
func (t ReadTruncation) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *channel.Scratch) []byte {
	start := len(dst)
	dst = t.Base.AppendTransmit(dst, ref, r, scr)
	readLen := len(dst) - start
	if !r.Bool(t.P) || readLen < 2 {
		return dst
	}
	minFrac := t.MinFrac
	if minFrac <= 0 || minFrac >= 1 {
		minFrac = 0.2
	}
	frac := minFrac + r.Float64()*(1-minFrac)
	n := int(frac * float64(readLen))
	if n < 1 {
		n = 1
	}
	if n >= readLen {
		return dst
	}
	return dst[:start+n]
}

// Name implements channel.Channel.
func (t ReadTruncation) Name() string {
	return fmt.Sprintf("%s+truncate(%.3f)", t.Base.Name(), t.P)
}

// ContaminationSpike wraps a Channel and replaces reads with contamination
// at probability P: half the time a wholly foreign strand of comparable
// length (carry-over from another pool), half the time a chimera keeping a
// real prefix with an alien tail (template switching during PCR).
type ContaminationSpike struct {
	// Base produces the uncontaminated read.
	Base channel.Channel
	// P is the per-read contamination probability.
	P float64
}

// AppendTransmit implements channel.Channel: alien bases are appended to
// dst, after the kept prefix of the base read on the chimeric branch.
func (c ContaminationSpike) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *channel.Scratch) []byte {
	if !r.Bool(c.P) {
		return c.Base.AppendTransmit(dst, ref, r, scr)
	}
	n := len(ref)
	if n < 2 {
		n = 2
	}
	if r.Bool(0.5) {
		return appendRandom(dst, n, r)
	}
	start := len(dst)
	dst = c.Base.AppendTransmit(dst, ref, r, scr)
	readLen := len(dst) - start
	if readLen < 2 {
		return appendRandom(dst[:start], n, r)
	}
	cut := 1 + r.Intn(readLen-1)
	return appendRandom(dst[:start+cut], readLen-cut, r)
}

// Name implements channel.Channel.
func (c ContaminationSpike) Name() string {
	return fmt.Sprintf("%s+contam(%.3f)", c.Base.Name(), c.P)
}

// appendRandom appends n uniform bases to dst.
func appendRandom(dst []byte, n int, r *rng.RNG) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, dna.Base(r.Intn(dna.NumBases)).Byte())
	}
	return dst
}
