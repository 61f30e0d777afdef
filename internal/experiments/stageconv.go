package experiments

import (
	"fmt"

	"dnastore/internal/channel"
	"dnastore/internal/recon"
)

// ExtStageConvergence reruns the reconstruction-convergence question per
// stage combination: starting from the aggregate single-pass channel, each
// row adds one physical stage of the population-aware pipeline, ending at
// the full NewPhysicalPipeline with its pool effects bound over coverage.
// Sweeping target coverage shows how many extra reads each stage costs to
// reach the same Iterative accuracy — the multi-stage channels are harder
// at equal aggregate rate because their error mass is spatially and
// population-wise concentrated.
func ExtStageConvergence(scale Scale) Table {
	t := Table{
		ID:      "ext.stageconv",
		Title:   "Iterative convergence per stage combination (equal aggregate rate, coverage sweep)",
		Headers: []string{"Channel", "Aggregate rate", "Pool stages", "N", "Iter per-strand (%)", "Iter per-char (%)"},
	}
	const total = 0.059
	const years = 100.0

	type combo struct {
		name string
		pipe channel.Pipeline
	}
	singlePass := channel.Pipeline{Label: "single-pass aggregate", Stages: []channel.Stage{
		channel.NewNaive("single-pass", channel.NanoporeMix(total)),
	}}
	seqOnly := channel.Pipeline{Label: "sequencing", Stages: []channel.Stage{
		channel.NewSequencingStage(channel.NanoporeMix(total), channel.PaperLongDeletion(), nil),
	}}
	synthSeq := channel.Pipeline{Label: "synthesis→sequencing", Stages: []channel.Stage{
		channel.NewSynthesisStage(0.2 * total),
		channel.NewSequencingStage(channel.NanoporeMix(0.8*total), channel.PaperLongDeletion(), nil),
	}}
	staged := channel.NewStoragePipeline("4-stage strand", total, years)
	physical := channel.NewPhysicalPipeline("4-stage physical", total, years)

	refs := channel.RandomReferences(scale.Clusters, 110, scale.Seed+1400)
	for ci, c := range []combo{
		{"single-pass aggregate", singlePass},
		{"sequencing only", seqOnly},
		{"synthesis→sequencing", synthSeq},
		{"4-stage strand", staged},
		{"4-stage physical (pool)", physical},
	} {
		agg, _ := c.pipe.AggregateRate() // every stage here reports its rate
		for ni, n := range []int{2, 4, 6, 8, 10} {
			base := channel.FixedCoverage(n)
			bound := c.pipe.BindCoverage(base)
			poolCol := "none"
			if bound.Name() != base.Name() {
				poolCol = "pcr-skew+breakage"
			}
			sim := channel.Simulator{Channel: c.pipe, Coverage: bound}
			ds := sim.Simulate(c.name, refs, scale.Seed+1401+uint64(ci*100+ni))
			ps, pc := reconstructAccuracy(recon.NewIterative(), ds)
			t.Rows = append(t.Rows, []string{
				c.name, fmt.Sprintf("%.4f", agg), poolCol, fmt.Sprintf("%d", n), pct(ps), pct(pc),
			})
		}
	}
	return t
}
