package channel

import (
	"strings"

	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Stage is one physical step of the storage channel: anything with a
// Name. Stages come in two shapes, selected by interface:
//
//   - per-strand error stages implement Channel: they perturb individual
//     reads (synthesis errors, sequencing noise, chimeras) on the
//     zero-allocation kernel, each stage's output feeding the next.
//   - count stages transform the cluster population before any read is
//     generated (pool.go): pool stages (PoolStage) rewrite the cluster's
//     read count after the base coverage draw — PCR amplification skew,
//     strand breakage, GC bias — and pre-base stages (PreBaseStage:
//     Dropout, ZeroCoverage) may erase the cluster before it.
//     Pipeline.BindCoverage layers them over a CoverageModel.
//
// One concrete type may be both shapes at once: PCRAmplification adds
// per-cycle substitutions to every strand and lognormal amplification
// skew to the pool.
type Stage interface {
	// Name identifies the stage in pipeline names and tables.
	Name() string
}

// Pipeline composes stages in physical order: the output of strand stage
// k is the input of strand stage k+1, and pool stages rewrite the
// cluster's read count in the same order (BindCoverage). This realises
// the paper's §4.2 recommendation — "an ideal simulator should allow for
// a multi-stage, composable simulation process" — with one stage per
// physical step (synthesis → PCR → storage → sequencing) instead of a
// single aggregate error pass.
//
// Pipeline implements Channel. With zero strand stages it is the identity
// channel.
type Pipeline struct {
	// Label names the pipeline in tables.
	Label string
	// Stages are applied in order.
	Stages []Stage
}

// Name implements Channel.
func (p Pipeline) Name() string {
	if p.Label != "" {
		return p.Label
	}
	names := make([]string, len(p.Stages))
	for i, s := range p.Stages {
		names[i] = s.Name()
	}
	return strings.Join(names, "→")
}

// AppendTransmit implements Channel: the reference flows through every
// strand stage in order, all randomness drawn from r in stage order.
// Intermediate stages hand base codes to each other through the arena's
// two code buffers, alternating so a stage never writes the buffer it
// reads. A stage with the codeAppender kernel (*Model and the types
// embedding it) writes codes directly; any other stage writes ASCII into
// the arena's staging buffer, which is decoded into the code buffer. Only
// the final stage appends letters to the caller's dst — 0 allocs/op once
// the arena is warm. An empty intermediate output (total deletion) flows
// through as an empty reference, which downstream Model stages pass
// unchanged without consuming draws. With zero strand stages the
// reference is copied into dst faithfully.
func (p Pipeline) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte {
	// Count the strand stages so the last one can append straight into
	// dst; a slice of them here would put an allocation on the hot path.
	n := 0
	for _, st := range p.Stages {
		if _, ok := st.(Channel); ok {
			n++
		}
	}
	if n == 0 {
		return dna.AppendLetters(dst, ref)
	}
	codes := ref
	k := 0
	for _, st := range p.Stages {
		ch, ok := st.(Channel)
		if !ok {
			continue
		}
		k++
		if k == n {
			return ch.AppendTransmit(dst, codes, r, scr)
		}
		next := scr.stageCodes[k&1][:0]
		if ca, ok := ch.(codeAppender); ok {
			next = ca.appendCodes(next, codes, r, scr)
		} else {
			scr.stageOut = ch.AppendTransmit(scr.stageOut[:0], codes, r, scr)
			next = appendBaseCodes(next, scr.stageOut)
		}
		scr.stageCodes[k&1] = next
		codes = next
	}
	return dst // unreachable: the k == n branch always returns
}

// codeAppender is a strand stage that can emit its output as 2-bit base
// codes (Model.appendCodes), draw for draw what its AppendTransmit would
// emit as letters.
type codeAppender interface {
	appendCodes(dst, ref []dna.Base, r *rng.RNG, scr *Scratch) []dna.Base
}

// appendBaseCodes decodes ASCII base letters back into 2-bit codes: the
// output of an intermediate stage without the codeAppender kernel, which
// must be valid ACGT.
func appendBaseCodes(dst []dna.Base, letters []byte) []dna.Base {
	for _, c := range letters {
		dst = append(dst, dna.MustBase(c))
	}
	return dst
}

// AggregateRate returns the approximate combined per-base error rate of
// all strand stages (small-rate approximation: rates add). complete is
// false when any strand stage does not expose an AggregateRate — the sum
// then under-reports the channel and callers must say so instead of
// presenting it as the whole rate. Pool stages shape coverage, not
// per-read error mass, so they never mark the sum incomplete.
func (p Pipeline) AggregateRate() (rate float64, complete bool) {
	complete = true
	for _, st := range p.Stages {
		ch, ok := st.(Channel)
		if !ok {
			continue
		}
		if m, ok := ch.(interface{ AggregateRate() float64 }); ok {
			rate += m.AggregateRate()
		} else {
			complete = false
		}
	}
	return rate, complete
}

// NewSynthesisStage models array-based synthesis: deletion-dominant errors
// whose rate grows toward the 3' end of the strand (synthesis proceeds
// base-by-base and late couplings fail more often — why strands longer than
// ~200 bases are impractical, §1.2).
func NewSynthesisStage(rate float64) *Model {
	m := &Model{Label: "synthesis"}
	r := Rates{Del: 0.7 * rate, Ins: 0.1 * rate, Sub: 0.2 * rate}
	for b := range m.PerBase {
		m.PerBase[b] = r
	}
	m.Spatial = dist.TerminalSkew{StartPositions: 0, EndPositions: 5, StartBoost: 1, EndBoost: 4}
	return m
}

// NewPCRStage models polymerase-chain-reaction amplification: per-cycle
// substitution errors that accumulate over the number of cycles; polymerase
// virtually never introduces indels. This is the strand-only PCR shape —
// NewPCRAmplification (pool.go) adds the population-level amplification
// skew on top.
func NewPCRStage(cycles int, perCycleSubRate float64) *Model {
	if cycles < 0 {
		cycles = 0
	}
	m := &Model{Label: "pcr"}
	r := Rates{Sub: float64(cycles) * perCycleSubRate}
	for b := range m.PerBase {
		m.PerBase[b] = r
	}
	// Complementary-base misincorporation dominates: A↔G, C↔T transitions
	// are far likelier than transversions (Heckel et al., §2.1).
	m.SubMatrix = TransitionBiasedSubMatrix(0.8)
	return m
}

// NewDecayStage models storage decay over the given duration: hydrolytic
// damage that manifests as substitutions (deaminated bases misread) and
// single-base deletions (abasic sites), proportional to storage time.
// NewAgingStage (pool.go) pairs this per-strand damage with strand
// breakage that thins the pool.
func NewDecayStage(years, ratePerYear float64) *Model {
	if years < 0 {
		years = 0
	}
	m := &Model{Label: "storage"}
	p := years * ratePerYear
	r := Rates{Sub: 0.5 * p, Del: 0.5 * p}
	for b := range m.PerBase {
		m.PerBase[b] = r
	}
	return m
}

// NewSequencingStage models the sequencing read-out with the given rate
// mix, terminal spatial skew and burst deletions — the Nanopore shape.
func NewSequencingStage(rates Rates, longDel LongDeletion, spatial dist.Spatial) *Model {
	m := &Model{Label: "sequencing", LongDel: longDel, Spatial: spatial}
	for b := range m.PerBase {
		m.PerBase[b] = rates
	}
	m.SubMatrix = TransitionBiasedSubMatrix(0.6)
	return m
}

// TransitionBiasedSubMatrix builds a substitution confusion matrix where a
// fraction `transition` of substitutions go to the chemically confusable
// partner (A→G, G→A, C→T, T→C; p≈0.4 each direction in Heckel et al.'s
// measurements) and the remainder splits evenly over the two transversions.
func TransitionBiasedSubMatrix(transition float64) [dna.NumBases][dna.NumBases]float64 {
	if transition < 0 {
		transition = 0
	}
	if transition > 1 {
		transition = 1
	}
	partner := map[dna.Base]dna.Base{dna.A: dna.G, dna.G: dna.A, dna.C: dna.T, dna.T: dna.C}
	var mtx [dna.NumBases][dna.NumBases]float64
	for b := dna.Base(0); b < dna.NumBases; b++ {
		rest := (1 - transition) / 2
		for c := dna.Base(0); c < dna.NumBases; c++ {
			if c == b {
				continue
			}
			if c == partner[b] {
				mtx[b][c] = transition
			} else {
				mtx[b][c] = rest
			}
		}
	}
	return mtx
}

// NewStoragePipeline assembles the four-stage strand pipeline with
// representative rates. totalRate is split across stages roughly as the
// literature attributes errors: sequencing dominates (~70%), synthesis is
// second (~20%), PCR and decay are minor. All stages are per-strand; for
// the population-aware variant with amplification skew and breakage see
// NewPhysicalPipeline.
func NewStoragePipeline(label string, totalRate float64, storageYears float64) Pipeline {
	seqRate := 0.70 * totalRate
	synthRate := 0.20 * totalRate
	pcrRate := 0.05 * totalRate
	decayRate := 0.05 * totalRate
	var decayPerYear float64
	if storageYears > 0 {
		decayPerYear = decayRate / storageYears
	}
	return Pipeline{
		Label: label,
		Stages: []Stage{
			NewSynthesisStage(synthRate),
			NewPCRStage(30, pcrRate/30),
			NewDecayStage(storageYears, decayPerYear),
			NewSequencingStage(NanoporeMix(seqRate), PaperLongDeletion(), dist.NanoporeSkew()),
		},
	}
}

// NewPhysicalPipeline assembles the population-aware four-stage channel:
// the same per-strand error split as NewStoragePipeline, plus the pool
// effects Heckel et al.'s channel characterization says dominate real
// pools — lognormal PCR amplification skew and age-dependent strand
// breakage. Bind the pool effects with BindCoverage; the per-strand
// stages run on the usual Channel kernel.
func NewPhysicalPipeline(label string, totalRate, storageYears float64) Pipeline {
	seqRate := 0.70 * totalRate
	synthRate := 0.20 * totalRate
	pcrRate := 0.05 * totalRate
	decayRate := 0.05 * totalRate
	var decayPerYear float64
	if storageYears > 0 {
		decayPerYear = decayRate / storageYears
	}
	return Pipeline{
		Label: label,
		Stages: []Stage{
			NewSynthesisStage(synthRate),
			NewPCRAmplification(30, pcrRate/30, DefaultPCREfficiencySD),
			NewAgingStage(storageYears, decayPerYear, DefaultBreakagePerYear),
			NewSequencingStage(NanoporeMix(seqRate), PaperLongDeletion(), dist.NanoporeSkew()),
		},
	}
}
