package channel

import (
	"testing"
	"unsafe"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// strandTransmitter is the unexported reference-implementation hook every
// *Model (and types embedding one) exposes inside the package.
type strandTransmitter interface {
	transmitReference(ref dna.Strand, r *rng.RNG) dna.Strand
}

// TestPipelineZeroStagesReturnsFreshStrand is the alias regression: a
// pipeline with no strand stages is the identity channel, but its output
// must still have fresh backing. The old implementation returned the
// caller's ref directly, so a caller mutating a buffer it had converted to
// the reference Strand would silently corrupt "transmitted" reads.
func TestPipelineZeroStagesReturnsFreshStrand(t *testing.T) {
	ref := dna.Strand(RandomReferences(1, 80, 41)[0])
	r := rng.New(1)

	for _, p := range []Pipeline{
		{Label: "empty"},
		{Label: "pool-only", Stages: []Stage{NewPCRAmplification(30, 0, 0.02)}},
	} {
		out := Transmit(p, ref, r)
		if out != ref {
			t.Fatalf("%s: identity pipeline altered the read", p.Label)
		}
		if unsafe.StringData(string(out)) == unsafe.StringData(string(ref)) {
			t.Errorf("%s: Transmit returned an alias of the caller's reference", p.Label)
		}
	}

	// The append path must copy faithfully and consume no draws.
	var scr Scratch
	r1, r2 := rng.New(3), rng.New(3)
	codes := scr.RefBases(ref)
	dst := Pipeline{}.AppendTransmit(nil, codes, r1, &scr)
	if string(dst) != string(ref) {
		t.Error("zero-stage AppendTransmit is not a faithful copy")
	}
	if r1.Uint64() != r2.Uint64() {
		t.Error("zero-stage AppendTransmit consumed RNG draws")
	}
}

// TestPipelineAppendParity: Transmit and AppendTransmit must match
// chaining the stages' reference transmitters by hand, draw for draw —
// same bytes AND same RNG stream position afterwards. Covers both the
// all-Model storage pipeline and the physical pipeline whose PCR and aging
// stages are embedding wrappers.
func TestPipelineAppendParity(t *testing.T) {
	for _, pipe := range []Pipeline{
		NewStoragePipeline("parity-storage", 0.059, 10),
		NewPhysicalPipeline("parity-physical", 0.059, 100),
	} {
		pipe := pipe
		t.Run(pipe.Label, func(t *testing.T) {
			refs := RandomReferences(50, 110, 43)
			var scr Scratch
			for i, ref := range refs {
				seed := uint64(1000 + i)
				rGot, rApp, rWant := rng.New(seed), rng.New(seed), rng.New(seed)

				got := Transmit(pipe, ref, rGot)

				scr.out = pipe.AppendTransmit(scr.out[:0], scr.RefBases(ref), rApp, &scr)
				app := string(scr.out)

				want := ref
				for _, st := range pipe.Stages {
					want = st.(strandTransmitter).transmitReference(want, rWant)
				}

				if string(got) != string(want) || app != string(want) {
					t.Fatalf("ref %d: Transmit=%q Append=%q reference=%q", i, got, app, want)
				}
				if g, a, w := rGot.Uint64(), rApp.Uint64(), rWant.Uint64(); g != w || a != w {
					t.Fatalf("ref %d: RNG stream positions diverged (%d, %d, %d)", i, g, a, w)
				}
			}
		})
	}
}

// truncChannel is a Channel outside the Model family: it drops the last
// base, consumes no draws and has no AggregateRate.
type truncChannel struct{}

func (truncChannel) Name() string { return "trunc" }
func (truncChannel) AppendTransmit(dst []byte, ref []dna.Base, _ *rng.RNG, _ *Scratch) []byte {
	if len(ref) == 0 {
		return dst
	}
	return dna.AppendLetters(dst, ref[:len(ref)-1])
}

// TestPipelineMixedStages exercises a pipeline mixing Models with another
// Channel: both Transmit and AppendTransmit must agree with the
// hand-chained result.
func TestPipelineMixedStages(t *testing.T) {
	m := NewNaive("n", EqualMix(0.05))
	pipe := Pipeline{Label: "mixed", Stages: []Stage{m, truncChannel{}}}

	ref := dna.Strand(RandomReferences(1, 90, 47)[0])
	r1, r2, r3 := rng.New(9), rng.New(9), rng.New(9)

	got := Transmit(pipe, ref, r1)

	var scr Scratch
	app := string(pipe.AppendTransmit(nil, scr.RefBases(ref), r2, &scr))

	want := Transmit(truncChannel{}, m.transmitReference(ref, r3), r3)
	if string(got) != string(want) || app != string(want) {
		t.Errorf("mixed pipeline: Transmit=%q Append=%q want=%q", got, app, want)
	}
}

// TestPipelineAggregateIncomplete: a strand stage without AggregateRate
// must flag the sum as partial; pool-only stages must not.
func TestPipelineAggregateIncomplete(t *testing.T) {
	full := Pipeline{Stages: []Stage{
		NewNaive("a", EqualMix(0.02)),
		NewPCRAmplification(30, 0, 0.02), // pool effect only, rate 0
	}}
	if _, complete := full.AggregateRate(); !complete {
		t.Error("pool stage with zero strand rate marked the sum incomplete")
	}

	partial := Pipeline{Stages: []Stage{
		NewNaive("a", EqualMix(0.02)),
		truncChannel{},
	}}
	rate, complete := partial.AggregateRate()
	if complete {
		t.Error("stage without AggregateRate did not mark the sum incomplete")
	}
	if rate != 0.02 {
		t.Errorf("partial rate = %v, want 0.02", rate)
	}
}
