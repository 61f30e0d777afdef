package experiments

import (
	"fmt"
	"sort"
)

// Entry is one runnable experiment in the registry.
type Entry struct {
	// ID matches DESIGN.md's per-experiment index ("table2.1", "fig3.3").
	ID string
	// Description says what the experiment reproduces.
	Description string
	// NeedsWorkbench is true when the experiment consumes the shared
	// wetlab dataset and calibration (most do).
	NeedsWorkbench bool
	// Run executes the experiment; wb may be nil when NeedsWorkbench is
	// false.
	Run func(wb *Workbench, scale Scale) ([]Result, error)
}

// Registry returns every experiment, sorted by ID.
func Registry() []Entry {
	entries := []Entry{
		{
			ID: "table1.1", Description: "Sequencing technology comparison",
			Run: func(_ *Workbench, _ Scale) ([]Result, error) { return []Result{Table11()}, nil },
		},
		{
			ID: "table2.1", Description: "Per-strand accuracy on real vs naive vs DNASimulator data", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) { return []Result{Table21(wb)}, nil },
		},
		{
			ID: "table2.2", Description: "Accuracy at fixed coverage 5 and 6", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := Table22(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "table3.1", Description: "Progressive simulator tiers at N=5", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := Table31(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "table3.2", Description: "Progressive simulator tiers at N=6", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := Table32(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "fig3.2", Description: "Pre-reconstruction noise profile of Nanopore data", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) { return []Result{Figure32(wb)}, nil },
		},
		{
			ID: "fig3.3", Description: "Iterative accuracy at coverages 1-10", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				s, err := Figure33(wb)
				return []Result{s}, err
			},
		},
		{
			ID: "fig3.4", Description: "Post-reconstruction profiles on Nanopore data (N=5 and N=6, incl. C.1)", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				s5, err := Figure34(wb, 5)
				if err != nil {
					return nil, err
				}
				s6, err := Figure34(wb, 6)
				if err != nil {
					return nil, err
				}
				return []Result{s5, s6}, nil
			},
		},
		{
			ID: "fig3.5", Description: "Post-reconstruction profiles on skewed simulated data (N=5 and N=6, incl. C.2)", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				return []Result{Figure35(wb, 5), Figure35(wb, 6)}, nil
			},
		},
		{
			ID: "fig3.6", Description: "Second-order error table and spatial histograms", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				return []Result{Figure36Table(wb), Figure36Spatial(wb, 4)}, nil
			},
		},
		{
			ID: "fig3.7", Description: "Accuracy and profiles at uniform distribution across error rates",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				return []Result{Figure37Accuracy(scale), Figure37Profiles(scale)}, nil
			},
		},
		{
			ID: "fig3.8", Description: "BMA gestalt profiles vs coverage at p=0.15",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) { return []Result{Figure38(scale)}, nil },
		},
		{
			ID: "fig3.9", Description: "Pre-reconstruction spatial distributions (uniform, A, V)",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) { return []Result{Figure39(scale)}, nil },
		},
		{
			ID: "fig3.10", Description: "BMA under A-shaped vs V-shaped spatial skew",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				return []Result{Figure310Accuracy(scale, 5), Figure310Profiles(scale, 5)}, nil
			},
		},
		{
			ID: "ext4.3", Description: "Two-way Iterative extension", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := ExtTwoWayIterative(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "abl.window", Description: "BMA look-ahead window sweep",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) { return []Result{AblationBMAWindow(scale)}, nil },
		},
		{
			ID: "abl.splice", Description: "Two-way splice rule ablation",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) { return []Result{AblationSplice(scale)}, nil },
		},
		{
			ID: "abl.script", Description: "Edit-script tie-break policy ablation", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := AblationScriptPolicy(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "abl.affine", Description: "Unit vs affine edit-script extraction", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := AblationAffineExtraction(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "abl.census", Description: "Residual error-type census", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := AblationResidualCensus(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "figC", Description: "Appendix C per-tier post-reconstruction profiles + summary", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				series, err := AppendixC(wb, 5)
				if err != nil {
					return nil, err
				}
				summary, err := AppendixCSummary(wb, 5)
				if err != nil {
					return nil, err
				}
				out := []Result{summary}
				for _, s := range series {
					out = append(out, s)
				}
				return out, nil
			},
		},
		{
			ID: "ext.metrics", Description: "Statistical distance of tiers from real data", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := ExtStatisticalDistance(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "ext.aging", Description: "Retrieval accuracy vs storage time",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				return []Result{ExtAging(scale)}, nil
			},
		},
		{
			ID: "ext.stageconv", Description: "Iterative convergence per stage combination (population-aware pipeline)",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				return []Result{ExtStageConvergence(scale)}, nil
			},
		},
		{
			ID: "ext.weighted", Description: "Copy weighting under cluster contamination",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				return []Result{ExtWeightedIterative(scale)}, nil
			},
		},
		{
			ID: "ext.clustering", Description: "Perfect vs imperfect clustering", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := ExtClustering(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "ext.chimera", Description: "Chimeric reads (strand-strand interactions)",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				t, err := ExtChimera(scale)
				return []Result{t}, err
			},
		},
		{
			ID: "ext.holdout", Description: "Held-out calibration generalization check", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := ExtHoldout(wb)
				return []Result{t}, err
			},
		},
		{
			ID: "ext.errorscale", Description: "Calibration robustness across error regimes",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				t, err := ExtErrorScale(scale)
				return []Result{t}, err
			},
		},
		{
			ID: "abl.homopolymer", Description: "Homopolymer error boost modelling",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				t, err := AblationHomopolymer(scale)
				return []Result{t}, err
			},
		},
		{
			ID: "abl.coverage", Description: "Coverage model shape comparison",
			Run: func(_ *Workbench, scale Scale) ([]Result, error) {
				return []Result{AblationCoverageModels(scale)}, nil
			},
		},
		{
			ID: "abl.algorithms", Description: "Full algorithm roster on real data", NeedsWorkbench: true,
			Run: func(wb *Workbench, _ Scale) ([]Result, error) {
				t, err := AblationAlgorithms(wb)
				return []Result{t}, err
			},
		},
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return entries
}

// Lookup finds a registry entry by ID.
func Lookup(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
