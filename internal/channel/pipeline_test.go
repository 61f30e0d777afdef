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

// asciiRoundTrip is the pipeline's former intermediate path, kept as the
// differential oracle for the code buffers: every intermediate stage
// appends its read as ASCII through AppendTransmit, and the letters are
// decoded back into codes for the next stage.
func asciiRoundTrip(p Pipeline, dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte {
	var chans []Channel
	for _, st := range p.Stages {
		if ch, ok := st.(Channel); ok {
			chans = append(chans, ch)
		}
	}
	if len(chans) == 0 {
		return dna.AppendLetters(dst, ref)
	}
	codes := ref
	for _, ch := range chans[:len(chans)-1] {
		codes = appendBaseCodes(nil, ch.AppendTransmit(nil, codes, r, scr))
	}
	return chans[len(chans)-1].AppendTransmit(dst, codes, r, scr)
}

// TestPipelineCodePathMatchesASCIIOracle: the code buffers must leave
// every byte and every draw where the ASCII round trip left them — the
// same read after a caller's prefix in dst, and the same RNG state after
// the call — across seeds, reference lengths 0 to 110, pipelines built by
// constructor and by the grammar (naive= included), rates that delete an
// intermediate read whole, and intermediate stages outside the Model
// family, which keep the ASCII path.
func TestPipelineCodePathMatchesASCIIOracle(t *testing.T) {
	build := func(spec string) Pipeline {
		t.Helper()
		l, err := ParseStages(spec)
		if err != nil {
			t.Fatal(err)
		}
		return l.Build(spec)
	}
	pool := RandomReferences(8, 110, 61)
	chim, err := NewChimera(NewNaive("chim", EqualMix(0.03)), pool, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	harsh := build("naive=0.05:0.02:0.6,naive=0.02:0.02:0.5,sequencing=0.05")
	for _, pipe := range []Pipeline{
		NewPhysicalPipeline("physical", 0.059, 10),
		NewStoragePipeline("storage", 0.059, 10),
		build("synthesis=0.0118,naive=0.01:0.005:0.02,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew"),
		build("naive=0.2:0.1:0.3,naive=0.1:0.2:0.1"),
		harsh,
		{Label: "dnasimulator-mid", Stages: []Stage{
			NewSynthesisStage(0.02), NewDNASimulator("dnasim", DefaultNanoporeDict()), NewPCRAmplification(30, 0.0005, 0.02), NewNaive("n", EqualMix(0.03)),
		}},
		{Label: "chimera-mid", Stages: []Stage{
			NewNaive("a", EqualMix(0.04)), chim, NewAgingStage(100, 3e-05, 0.00133), truncChannel{}, NewSequencingStage(NanoporeMix(0.04), PaperLongDeletion(), nil),
		}},
		{Label: "pool-between", Stages: []Stage{
			GCBias{Strength: 1.5}, NewNaive("a", EqualMix(0.05)), Dropout{P: 0.1}, NewNaive("b", EqualMix(0.05)),
		}},
	} {
		t.Run(pipe.Name(), func(t *testing.T) {
			var scrNew, scrOld Scratch
			var dst []byte
			for _, n := range []int{0, 1, 2, 3, 5, 17, 110} {
				for seed := uint64(0); seed < 150; seed++ {
					ref := pool[seed%uint64(len(pool))][:n]
					codes := ref.AppendBases(nil)
					rNew, rOld := rng.New(seed), rng.New(seed)
					dst = append(dst[:0], "GATTACA"...)
					dst = pipe.AppendTransmit(dst, codes, rNew, &scrNew)
					want := asciiRoundTrip(pipe, []byte("GATTACA"), codes, rOld, &scrOld)
					if string(dst) != string(want) {
						t.Fatalf("len %d seed %d: code path %q, ASCII oracle %q", n, seed, dst, want)
					}
					if a, b := rNew.Uint64(), rOld.Uint64(); a != b {
						t.Fatalf("len %d seed %d: RNG state diverged after the call (%d vs %d)", n, seed, a, b)
					}
				}
			}
		})
	}

	// The harsh pipeline must really delete an intermediate read whole,
	// or the empty-reference hand-off above went untested.
	first := harsh.Stages[0].(*Model)
	var scr Scratch
	empties := 0
	for seed := uint64(0); seed < 150; seed++ {
		codes := pool[0][:5].AppendBases(nil)
		if len(first.appendCodes(nil, codes, rng.New(seed), &scr)) == 0 {
			empties++
		}
	}
	if empties == 0 {
		t.Error("no intermediate read came out empty")
	}
}
