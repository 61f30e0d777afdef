package experiments

import (
	"fmt"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dist"
	"dnastore/internal/metrics"
	"dnastore/internal/profile"
	"dnastore/internal/recon"
)

// ExtTwoWayIterative evaluates the paper's §4.3 proposal: two-way
// execution of the Iterative algorithm. It compares one-way Iterative,
// the anchored two-way variant and BMA across the regimes where the
// question matters: uniform errors, end-skewed errors, and the real
// (terminal-skewed) data.
func ExtTwoWayIterative(wb *Workbench) (Table, error) {
	t := Table{
		ID:      "ext4.3",
		Title:   "Two-way execution of the Iterative algorithm (§4.3 extension)",
		Headers: []string{"Data", "Algorithm", "Per-strand (%)", "Per-char (%)"},
	}
	endSkew := dist.TerminalSkew{StartPositions: 2, EndPositions: 1, StartBoost: 1, EndBoost: 6}
	refs := wb.Real.References()
	uniform := channel.Simulator{
		Channel:  channel.NewNaive("uniform p=0.059", channel.NanoporeMix(0.059)),
		Coverage: channel.FixedCoverage(5),
	}.Simulate("uniform p=0.059", refs, wb.Scale.Seed+500)
	skewed := channel.Simulator{
		Channel:  channel.NewNaive("end-skewed p=0.059", channel.NanoporeMix(0.059)).WithSpatial(endSkew),
		Coverage: channel.FixedCoverage(5),
	}.Simulate("end-skewed p=0.059", refs, wb.Scale.Seed+501)
	real, err := wb.FixedCoverage(5, 10)
	if err != nil {
		return Table{}, err
	}
	real.Name = "Nanopore@N=5"

	algs := []recon.Reconstructor{recon.NewIterative(), recon.NewTwoWayIterative(), recon.NewBMA()}
	for _, ds := range []*dataset.Dataset{uniform, skewed, real} {
		for _, alg := range algs {
			ps, pc := reconstructAccuracy(alg, ds)
			t.Rows = append(t.Rows, []string{ds.Name, alg.Name(), pct(ps), pct(pc)})
		}
	}
	return t, nil
}

// AblationBMAWindow sweeps the BMA look-ahead window — a design choice
// DESIGN.md flags for ablation.
func AblationBMAWindow(scale Scale) Table {
	t := Table{
		ID:      "abl.window",
		Title:   "BMA look-ahead window size (uniform p=0.059, N=5)",
		Headers: []string{"Window", "Per-strand (%)", "Per-char (%)"},
	}
	refs := channel.RandomReferences(scale.Clusters, 110, scale.Seed+700)
	ds := channel.Simulator{
		Channel:  channel.NewNaive("n", channel.NanoporeMix(0.059)),
		Coverage: channel.FixedCoverage(5),
	}.Simulate("w-sweep", refs, scale.Seed+701)
	for _, w := range []int{1, 2, 3, 5, 8} {
		ps, pc := reconstructAccuracy(recon.BMA{Window: w}, ds)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", w), pct(ps), pct(pc)})
	}
	return t
}

// AblationSplice compares the two-way splice rules: BMA-style fixed
// mid-point concatenation versus the agreement-anchored splice.
func AblationSplice(scale Scale) Table {
	t := Table{
		ID:      "abl.splice",
		Title:   "Two-way splice rule: fixed mid-point vs agreement anchor (uniform p=0.059, N=5)",
		Headers: []string{"Splice", "Per-strand (%)", "Per-char (%)"},
	}
	refs := channel.RandomReferences(scale.Clusters, 110, scale.Seed+800)
	ds := channel.Simulator{
		Channel:  channel.NewNaive("n", channel.NanoporeMix(0.059)),
		Coverage: channel.FixedCoverage(5),
	}.Simulate("splice-sweep", refs, scale.Seed+801)
	plain := recon.TwoWayIterative{PlainSplice: true}
	anchored := recon.NewTwoWayIterative()
	for _, alg := range []recon.Reconstructor{plain, anchored} {
		ps, pc := reconstructAccuracy(alg, ds)
		t.Rows = append(t.Rows, []string{alg.Name(), pct(ps), pct(pc)})
	}
	return t
}

// AblationScriptPolicy measures how the Appendix B tie-break policy
// (deterministic vs randomized) shifts the fitted conditional
// parameters — the estimation-side ablation DESIGN.md calls out.
func AblationScriptPolicy(wb *Workbench) (Table, error) {
	t := Table{
		ID:      "abl.script",
		Title:   "Edit-script tie-break policy and fitted parameters",
		Headers: []string{"Policy", "Aggregate", "Sub rate", "Ins rate", "Del rate", "Long-del p"},
	}
	det := wb.Profile
	rnd, err := profile.Profile(wb.Real, profile.Options{RandomizeScripts: true, Seed: wb.Scale.Seed + 900})
	if err != nil {
		return Table{}, err
	}
	for _, row := range []struct {
		name string
		p    *profile.ErrorProfile
	}{{"deterministic", det}, {"randomized", rnd}} {
		r := row.p.Rates()
		t.Rows = append(t.Rows, []string{
			row.name,
			fmt.Sprintf("%.4f", row.p.AggregateRate()),
			fmt.Sprintf("%.4f", r.Sub),
			fmt.Sprintf("%.4f", r.Ins),
			fmt.Sprintf("%.4f", r.Del),
			fmt.Sprintf("%.4f", row.p.LongDeletion().Prob),
		})
	}
	return t, nil
}

// AblationAffineExtraction compares the fitted error statistics under
// unit-cost edit scripts (the paper's Appendix B) and affine-gap scripts
// (Gotoh): affine extraction keeps burst deletions contiguous, so the
// long-deletion statistics it fits are at least as concentrated.
func AblationAffineExtraction(wb *Workbench) (Table, error) {
	t := Table{
		ID:      "abl.affine",
		Title:   "Edit-script cost model and fitted burst statistics",
		Headers: []string{"Cost model", "Aggregate", "Long-del p", "Long-del mean len", "Single-del rate"},
	}
	affine, err := profile.Profile(wb.Real, profile.Options{Affine: true})
	if err != nil {
		return Table{}, err
	}
	for _, row := range []struct {
		name string
		p    *profile.ErrorProfile
	}{{"unit (Appendix B)", wb.Profile}, {"affine (Gotoh)", affine}} {
		ld := row.p.LongDeletion()
		t.Rows = append(t.Rows, []string{
			row.name,
			fmt.Sprintf("%.4f", row.p.AggregateRate()),
			fmt.Sprintf("%.4f", ld.Prob),
			fmt.Sprintf("%.2f", ld.MeanLen()),
			fmt.Sprintf("%.4f", row.p.Rates().Del-float64(row.p.LongDelBases)/float64(row.p.RefBases)),
		})
	}
	return t, nil
}

// AblationResidualCensus verifies the §3.4.1 residual-error claim: after
// Iterative reconstruction the remaining errors are deletion-dominant.
func AblationResidualCensus(wb *Workbench) (Table, error) {
	t := Table{
		ID:      "abl.census",
		Title:   "Residual error types after reconstruction (Nanopore@N=5)",
		Headers: []string{"Algorithm", "Sub (%)", "Del (%)", "Ins (%)", "Total errors"},
	}
	ds, err := wb.FixedCoverage(5, 10)
	if err != nil {
		return Table{}, err
	}
	for _, alg := range []recon.Reconstructor{recon.NewIterative(), recon.NewBMA()} {
		out := recon.ReconstructDataset(alg, ds)
		c := metrics.CensusErrors(ds.References(), out)
		t.Rows = append(t.Rows, []string{
			alg.Name(),
			pct(100 * c.Fraction(align.Sub)),
			pct(100 * c.Fraction(align.Del)),
			pct(100 * c.Fraction(align.Ins)),
			fmt.Sprintf("%d", c.Total()),
		})
	}
	return t, nil
}
