package experiments

import (
	"fmt"

	"dnastore/internal/metrics"
	"dnastore/internal/recon"
)

// AppendixC reproduces the appendix C.4–C.8 figure set: the
// post-reconstruction Hamming and gestalt-aligned error profiles of BMA
// and Iterative on the real data and on *each* simulator tier at the
// given coverage — the per-tier panels that let the eye compare, column
// by column, how each added parameter reshapes the residual error
// distribution toward the real data's.
func AppendixC(wb *Workbench, n int) ([]Series, error) {
	sets, err := progressiveDatasets(wb, n)
	if err != nil {
		return nil, err
	}
	length := wb.Profile.StrandLen
	algs := []recon.Reconstructor{recon.NewIterative(), recon.NewBMA()}
	out := make([]Series, 0, len(sets))
	for i, ds := range sets {
		out = append(out, Series{
			ID:      fmt.Sprintf("figC.%d(N=%d)", i+4, n),
			Title:   fmt.Sprintf("Post-reconstruction analysis: %s at N = %d", ds.Name, n),
			XLabel:  "position",
			X:       positionAxis(length),
			Columns: postReconProfiles(ds, length, algs),
		})
	}
	return out, nil
}

// AppendixCSummary condenses the appendix panels into one table: for each
// tier and algorithm, where the residual error mass lives (strand thirds)
// and how far the profile sits from the real data's (χ² distance of
// normalised gestalt profiles). The final tier should carry the smallest
// distances.
func AppendixCSummary(wb *Workbench, n int) (Table, error) {
	t := Table{
		ID:      fmt.Sprintf("figC.summary(N=%d)", n),
		Title:   fmt.Sprintf("Residual gestalt error distribution by tier at N = %d", n),
		Headers: []string{"Data", "Algorithm", "First third", "Middle third", "Last third", "χ² vs real"},
	}
	sets, err := progressiveDatasets(wb, n)
	if err != nil {
		return Table{}, err
	}
	length := wb.Profile.StrandLen
	algs := []recon.Reconstructor{recon.NewIterative(), recon.NewBMA()}

	// Real-data reference profiles per algorithm, for the χ² column.
	realProfiles := make([][]float64, len(algs))
	for ai, alg := range algs {
		cols := postReconProfiles(sets[0], length, []recon.Reconstructor{alg})
		realProfiles[ai] = metrics.Normalize(cols[1].Y) // gestalt column
	}

	for _, ds := range sets {
		for ai, alg := range algs {
			cols := postReconProfiles(ds, length, []recon.Reconstructor{alg})
			g := cols[1].Y
			third := length / 3
			sum := func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi && i < len(g); i++ {
					s += g[i]
				}
				return s
			}
			chi := metrics.ChiSquare(realProfiles[ai], metrics.Normalize(g))
			t.Rows = append(t.Rows, []string{
				ds.Name, alg.Name(),
				fmt.Sprintf("%.3f", sum(0, third)),
				fmt.Sprintf("%.3f", sum(third, 2*third)),
				fmt.Sprintf("%.3f", sum(2*third, length+1)),
				fmt.Sprintf("%.4f", chi),
			})
		}
	}
	return t, nil
}
