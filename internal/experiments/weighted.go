package experiments

import (
	"strconv"

	"dnastore/internal/channel"
	"dnastore/internal/recon"
)

// ExtWeightedIterative evaluates the paper's second §4.3 proposal —
// weighting copies by how well they track the partial reconstruction — in
// the regime it targets: clusters contaminated by mis-clustered reads
// (§1.1.2: "a noisy copy n' of a strand n might be clustered together
// with copies of another strand m"). Each cluster of the real-shaped data
// receives alien reads; the weighted sweep should degrade most
// gracefully.
func ExtWeightedIterative(scale Scale) Table {
	t := Table{
		ID:      "ext.weighted",
		Title:   "Copy weighting under cluster contamination (§4.3 extension)",
		Headers: []string{"Contaminant reads", "Iterative ps/pc (%)", "Weighted ps/pc (%)", "BMA ps/pc (%)"},
	}
	refs := channel.RandomReferences(scale.Clusters, 110, scale.Seed+1600)
	alien := channel.RandomReferences(scale.Clusters, 110, scale.Seed+1601)
	m := channel.NewNaive("n", channel.NanoporeMix(0.059))
	sim := channel.Simulator{Channel: m, Coverage: channel.FixedCoverage(6)}
	base := sim.Simulate("clean", refs, scale.Seed+1602)
	alienDS := sim.Simulate("alien", alien, scale.Seed+1603)

	for _, contamination := range []int{0, 1, 2, 3} {
		ds := base.Clone()
		for i := range ds.Clusters {
			ds.Clusters[i].Reads = append(ds.Clusters[i].Reads, alienDS.Clusters[i].Reads[:contamination]...)
		}
		row := []string{strconv.Itoa(contamination)}
		for _, alg := range []recon.Reconstructor{recon.NewIterative(), recon.NewWeightedIterative(), recon.NewBMA()} {
			ps, pc := reconstructAccuracy(alg, ds)
			row = append(row, pct(ps)+" / "+pct(pc))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ExtChimera measures the impact of strand-strand interaction artifacts —
// chimeric reads, the §2.2.3 deficiency a per-strand error model cannot
// express — on reconstruction, and whether copy weighting recovers some of
// the loss (a chimera tracks the consensus until its splice point, then
// diverges, which is exactly the drift the weighting penalises).
func ExtChimera(scale Scale) (Table, error) {
	t := Table{
		ID:      "ext.chimera",
		Title:   "Chimeric reads (strand-strand interactions) and reconstruction",
		Headers: []string{"Chimera rate", "Iterative ps/pc (%)", "Weighted ps/pc (%)"},
	}
	refs := channel.RandomReferences(scale.Clusters, 110, scale.Seed+1800)
	base := channel.NewNaive("n", channel.NanoporeMix(0.059))
	for i, p := range []float64{0, 0.05, 0.10, 0.20} {
		ch, err := channel.NewChimera(base, refs, p)
		if err != nil {
			return Table{}, err
		}
		sim := channel.Simulator{Channel: ch, Coverage: channel.FixedCoverage(6)}
		ds := sim.Simulate("chimera", refs, scale.Seed+1801+uint64(i))
		row := []string{strconv.FormatFloat(p, 'g', -1, 64)}
		for _, alg := range []recon.Reconstructor{recon.NewIterative(), recon.NewWeightedIterative()} {
			ps, pc := reconstructAccuracy(alg, ds)
			row = append(row, pct(ps)+" / "+pct(pc))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
