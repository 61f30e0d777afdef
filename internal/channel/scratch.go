package channel

import (
	"sync"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// The zero-allocation transmit kernel. A Strand-in, Strand-out contract
// would force two costs per read that have nothing to do with the channel
// model: decoding the reference's ASCII bytes into base codes position by
// position, and allocating the output. Both amortise naturally one level
// up: a cluster transmits the same reference Coverage times, and a
// simulation worker can own one reusable arena for its whole run.
// AppendTransmitter is the interface that exposes this, and every Channel
// implements it; Scratch is the arena. Transmit is the one-read
// convenience for callers with no arena of their own.

// Scratch is a per-worker arena for the append-transmit fast path: the
// reference's base-code view, the output buffer, and the batched RNG
// block. A Scratch must not be shared between goroutines; the zero value
// is ready to use and all internal buffers are grown on demand and reused.
type Scratch struct {
	refCodes []dna.Base
	out      []byte
	// ends records the cumulative end offset of each read generated into
	// out when a whole cluster is built in one buffer (simulateCluster).
	ends  []int
	batch rng.Batch
	// stageCodes are the pipeline's two code buffers: intermediate stage
	// k writes its read as base codes into stageCodes[k&1], which stage
	// k+1 reads as its reference, so no stage writes the buffer it reads
	// (Pipeline.AppendTransmit). *Model, PCRAmplification and AgingStage
	// write codes there directly; any other intermediate stage writes
	// ASCII into stageOut, which is decoded into the code buffer. Only the
	// final stage touches the caller's dst, so a whole multi-stage
	// transmit stays allocation-free once warm.
	stageCodes [2][]dna.Base
	stageOut   []byte
}

// RefBases returns ref as 2-bit base codes, reusing the arena's buffer.
// The returned slice is valid until the next RefBases call on the same
// Scratch.
func (sc *Scratch) RefBases(ref dna.Strand) []dna.Base {
	sc.refCodes = ref.AppendBases(sc.refCodes[:0])
	return sc.refCodes
}

// AppendTransmitter is the transmit kernel every Channel implements: ref
// arrives as base codes (decoded once per cluster via Scratch.RefBases),
// the noisy read is appended to dst as ASCII bases, and scr supplies the
// per-worker RNG batch buffer. All randomness is drawn from r, so the
// output is a pure function of ref and the RNG stream position.
//
// Implementations must not touch scr.out (callers pass slices aliasing
// it as dst); dst is grown by append and returned.
type AppendTransmitter interface {
	AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte
}

// scratchPool recycles arenas for Transmit, which has nowhere to keep one.
// Simulation workers hold a Scratch directly and never touch the pool.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Transmit produces one fresh noisy copy of ref through ch's kernel, in a
// pooled arena. Callers that transmit one reference repeatedly (a cluster)
// should hold a Scratch and call AppendTransmit, which allocates nothing.
func Transmit(ch Channel, ref dna.Strand, r *rng.RNG) dna.Strand {
	scr := scratchPool.Get().(*Scratch)
	scr.out = ch.AppendTransmit(scr.out[:0], scr.RefBases(ref), r, scr)
	s := dna.Strand(scr.out)
	scratchPool.Put(scr)
	return s
}
