package wetlab

import (
	"fmt"

	"dnastore/internal/channel"
	"dnastore/internal/dist"
)

// Technology describes one DNA sequencing technology generation, mirroring
// the comparison of the paper's Table 1.1.
type Technology struct {
	// Name is the common name ("Sanger", "Illumina", "Nanopore").
	Name string
	// Generation is the ordinal generation (1, 2, 3).
	Generation int
	// CostPerKbUSD is the [low, high] sequencing cost range in dollars per
	// kilobase.
	CostPerKbUSD [2]float64
	// ErrorRate is the [low, high] per-base error-rate range.
	ErrorRate [2]float64
	// SequencingLengthBP is the maximum strand length reliably sequenced.
	SequencingLengthBP int
	// ReadSpeedHoursPerKb is the [low, high] read latency range in hours
	// per kilobase.
	ReadSpeedHoursPerKb [2]float64
	// BurstErrors reports whether the technology is prone to burst errors
	// (5+ consecutive corrupted bases) — a Nanopore trait (§1.2).
	BurstErrors bool
}

// TypicalErrorRate returns the midpoint of the error-rate range.
func (t Technology) TypicalErrorRate() float64 {
	return (t.ErrorRate[0] + t.ErrorRate[1]) / 2
}

// Technologies returns the Table 1.1 registry, in generation order.
func Technologies() []Technology {
	return []Technology{
		{
			Name:                "Sanger",
			Generation:          1,
			CostPerKbUSD:        [2]float64{1, 2},
			ErrorRate:           [2]float64{0.00001, 0.0001},
			SequencingLengthBP:  500,
			ReadSpeedHoursPerKb: [2]float64{1e-1, 1e-1},
		},
		{
			Name:                "Illumina",
			Generation:          2,
			CostPerKbUSD:        [2]float64{1e-5, 1e-3},
			ErrorRate:           [2]float64{0.001, 0.01},
			SequencingLengthBP:  150,
			ReadSpeedHoursPerKb: [2]float64{1e-7, 1e-4},
		},
		{
			Name:                "Nanopore",
			Generation:          3,
			CostPerKbUSD:        [2]float64{1e-4, 1e-3},
			ErrorRate:           [2]float64{0.10, 0.10},
			SequencingLengthBP:  100000,
			ReadSpeedHoursPerKb: [2]float64{1e-7, 1e-6},
			BurstErrors:         true,
		},
	}
}

// TechnologyByName returns the registry entry with the given name.
func TechnologyByName(name string) (Technology, error) {
	for _, t := range Technologies() {
		if t.Name == name {
			return t, nil
		}
	}
	return Technology{}, fmt.Errorf("wetlab: unknown technology %q", name)
}

// SequencingModel builds a sequencing-stage channel representative of the
// technology at its typical error rate: Sanger and Illumina are
// substitution-dominant and spatially flat; Nanopore is indel-heavy with
// terminal skew and burst deletions.
func (t Technology) SequencingModel() *channel.Model {
	rate := t.TypicalErrorRate()
	if t.BurstErrors {
		return channel.NewSequencingStage(
			channel.NanoporeMix(rate),
			channel.PaperLongDeletion(),
			dist.NanoporeSkew(),
		).WithLabel("seq-" + t.Name)
	}
	m := channel.NewNaive("seq-"+t.Name, channel.Rates{Sub: 0.8 * rate, Ins: 0.1 * rate, Del: 0.1 * rate})
	m.SubMatrix = channel.TransitionBiasedSubMatrix(0.6)
	return m
}

// PhysicalPipeline builds the full population-aware storage channel for the
// technology: synthesis → PCR with amplification skew → aging with strand
// breakage → the technology's own sequencing stage. Table 1.1's quoted
// error rates are sequencing rates, so the wet-lab stages ride on top using
// the standard 70/20/5/5 split (sequencing keeps its quoted rate; the other
// shares are scaled relative to it). Bind the pool effects over a coverage
// model with BindCoverage before simulating.
func (t Technology) PhysicalPipeline(storageYears float64) channel.Pipeline {
	seqRate := t.TypicalErrorRate()
	total := seqRate / 0.70
	pcrRate := 0.05 * total
	decayRate := 0.05 * total
	var decayPerYear float64
	if storageYears > 0 {
		decayPerYear = decayRate / storageYears
	}
	return channel.Pipeline{
		Label: "physical-" + t.Name,
		Stages: []channel.Stage{
			channel.NewSynthesisStage(0.20 * total),
			channel.NewPCRAmplification(30, pcrRate/30, channel.DefaultPCREfficiencySD),
			channel.NewAgingStage(storageYears, decayPerYear, channel.DefaultBreakagePerYear),
			t.SequencingModel(),
		},
	}
}
