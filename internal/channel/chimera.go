package channel

import (
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Read effects: Channels that change whole reads rather than bases —
// chimeras, and the truncate= and contam= fault directives.
//
// Chimeric reads: §2.2.3 faults DNASimulator for ignoring "errors due to
// strand-strand interactions, since the injection of errors for every
// strand is performed independently". The dominant interaction artifact in
// real pools is the chimera — a read whose prefix comes from one strand
// and whose suffix comes from another (template switching during PCR, or
// ligation during library preparation). A chimera changes one read, so it
// is a read effect: a Channel that knows the reference pool, drawing
// everything from the per-cluster RNG like any other channel.

// Chimera wraps a Channel: each read is, with probability P, transmitted
// from a chimera of its own reference and a uniformly chosen partner from
// Refs, spliced at a uniform position. Reads stay attributed to the
// cluster whose reference donated the prefix (the clustering stage would
// mostly group them there, since the prefix dominates edit distance to
// the true reference).
type Chimera struct {
	// Base transmits the (possibly chimeric) template.
	Base Channel
	// Refs is the reference pool partners are drawn from.
	Refs []dna.Strand
	// P is the per-read chimera probability.
	P float64
}

// NewChimera wraps base with chimeras drawn from refs at probability p.
func NewChimera(base Channel, refs []dna.Strand, p float64) (*Chimera, error) {
	if base == nil {
		return nil, fmt.Errorf("channel: chimera needs a base channel")
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("channel: chimera probability %g out of [0,1]", p)
	}
	if p > 0 && len(refs) < 2 {
		return nil, fmt.Errorf("channel: chimera needs at least 2 references, got %d", len(refs))
	}
	return &Chimera{Base: base, Refs: refs, P: p}, nil
}

// Name implements Channel.
func (c *Chimera) Name() string {
	return fmt.Sprintf("%s+chimera(%.3f)", c.Base.Name(), c.P)
}

// AppendTransmit implements Channel. The chimera draw consumes nothing at
// P=0, so a zero-rate Chimera is draw-for-draw its base channel. Only a
// chimeric read decodes its partner and allocates the spliced template.
func (c *Chimera) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte {
	if r.Bool(c.P) {
		// A partner other than ref, uniform over the rest of the pool: the
		// last reference stands in for ref's own slot.
		n := len(c.Refs)
		partner := c.Refs[r.Intn(n-1)]
		if sameStrand(partner, ref) {
			partner = c.Refs[n-1]
		}
		ref = spliceTemplates(ref, partner, r)
	}
	return c.Base.AppendTransmit(dst, ref, r, scr)
}

// sameStrand reports whether s spells exactly the base codes in codes.
func sameStrand(s dna.Strand, codes []dna.Base) bool {
	for i, b := range codes {
		if i >= len(s) || s[i] != b.Byte() {
			return false
		}
	}
	return len(s) == len(codes)
}

// spliceTemplates joins a prefix of a with a suffix of b at a uniform
// position (at least one base from each side).
func spliceTemplates(a []dna.Base, b dna.Strand, r *rng.RNG) []dna.Base {
	if len(a) < 2 || b.Len() < 2 {
		return a
	}
	cut := 1 + r.Intn(len(a)-1)
	// The suffix starts at the corresponding relative position of b so the
	// chimera's length stays near the design length.
	bCut := cut
	if bCut >= b.Len() {
		bCut = b.Len() - 1
	}
	// Capping the prefix's capacity makes AppendBases copy it into a fresh
	// slice, so a's backing array (the caller's arena) is never written.
	return b[bCut:].AppendBases(a[:cut:cut])
}

// ReadTruncation wraps a Channel and cuts reads short: with probability P
// per read, only a prefix survives, its fraction drawn uniformly from
// [MinFrac, 1). Models polymerase drop-off and aborted sequencing passes,
// which preferentially destroy strand suffixes. It is the truncate=
// directive.
type ReadTruncation struct {
	// Base produces the untruncated read.
	Base Channel
	// P is the per-read truncation probability.
	P float64
	// MinFrac is the shortest surviving prefix fraction (default 0.2).
	MinFrac float64
}

// AppendTransmit implements Channel: the base read is appended to dst,
// then cut back in place.
func (t ReadTruncation) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte {
	start := len(dst)
	dst = t.Base.AppendTransmit(dst, ref, r, scr)
	readLen := len(dst) - start
	if !r.Bool(t.P) || readLen < 2 {
		return dst
	}
	minFrac := t.minFrac()
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

// minFrac returns the effective MinFrac: the default 0.2 when it is
// unset or outside (0, 1).
func (t ReadTruncation) minFrac() float64 {
	if t.MinFrac <= 0 || t.MinFrac >= 1 {
		return 0.2
	}
	return t.MinFrac
}

// Name implements Channel. It renders the effective MinFrac, so two
// truncations that cut differently never share a name.
func (t ReadTruncation) Name() string {
	return fmt.Sprintf("%s+truncate(%.3f:%.3f)", t.Base.Name(), t.P, t.minFrac())
}

// ContaminationSpike wraps a Channel and replaces reads with contamination
// at probability P: half the time a wholly foreign strand of comparable
// length (carry-over from another pool), half the time a chimera keeping a
// real prefix with an alien tail (template switching during PCR). It is
// the contam= directive.
type ContaminationSpike struct {
	// Base produces the uncontaminated read.
	Base Channel
	// P is the per-read contamination probability.
	P float64
}

// AppendTransmit implements Channel: alien bases are appended to dst,
// after the kept prefix of the base read on the chimeric branch.
func (c ContaminationSpike) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte {
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

// Name implements Channel.
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
