package experiments

import (
	"fmt"
	"strings"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/profile"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
)

// runRichReferences builds references with frequent homopolymer runs, the
// workload where run-aware error modelling matters.
func runRichReferences(n, length int, seed uint64) []dna.Strand {
	r := rng.New(seed)
	refs := make([]dna.Strand, n)
	for i := range refs {
		var sb strings.Builder
		for sb.Len() < length {
			b := dna.Base(r.Intn(dna.NumBases))
			runLen := 1 + r.Intn(5)
			for k := 0; k < runLen && sb.Len() < length; k++ {
				sb.WriteByte(b.Byte())
			}
		}
		refs[i] = dna.Strand(sb.String())
	}
	return refs
}

// AblationHomopolymer measures the homopolymer error boost (§1.2; a
// deficiency §2.2.3 notes DNASimulator shares with the naive model): a
// boosted ground truth is profiled, and the measured in-run/out-run error
// ratio is compared across channels with and without run-aware modelling.
func AblationHomopolymer(scale Scale) (Table, error) {
	t := Table{
		ID:      "abl.homopolymer",
		Title:   "Homopolymer error boost: measured in-run/out-run error ratio",
		Headers: []string{"Channel", "Homopolymer error ratio", "Iter per-strand (%)", "Iter per-char (%)"},
	}
	refs := runRichReferences(scale.Clusters, 110, scale.Seed+1000)
	base := channel.NewNaive("flat (no run model)", channel.NanoporeMix(0.059))
	boosted, err := channel.NewHomopolymerModel(
		channel.NewNaive("run-aware (boost ×3)", channel.NanoporeMix(0.059)), 3, 3)
	if err != nil {
		return Table{}, err
	}
	for i, ch := range []channel.Channel{base, boosted} {
		sim := channel.Simulator{Channel: ch, Coverage: channel.FixedCoverage(6)}
		ds := sim.Simulate(ch.Name(), refs, scale.Seed+1001+uint64(i))
		p, err := profile.Profile(ds, profile.Options{})
		if err != nil {
			return Table{}, err
		}
		ps, pc := reconstructAccuracy(recon.NewIterative(), ds)
		t.Rows = append(t.Rows, []string{
			ch.Name(), fmt.Sprintf("%.2f", p.HomopolymerErrorRatio()), pct(ps), pct(pc),
		})
	}
	return t, nil
}

// AblationCoverageModels compares the coverage models (§2.2.3 notes
// DNASimulator assumes uniform coverage; real coverage is overdispersed
// and PCR-biased): identical channel, identical mean coverage, different
// coverage shapes — erasures and low-coverage clusters drag accuracy.
func AblationCoverageModels(scale Scale) Table {
	t := Table{
		ID:      "abl.coverage",
		Title:   "Coverage model shape at equal mean (channel fixed, mean ≈ 8)",
		Headers: []string{"Coverage model", "Erasures", "Min", "Max", "Iter per-strand (%)", "Iter per-char (%)"},
	}
	refs := channel.RandomReferences(scale.Clusters, 110, scale.Seed+1100)
	ch := channel.NewNaive("n", channel.NanoporeMix(0.059))
	models := []channel.CoverageModel{
		channel.FixedCoverage(8),
		channel.PoissonCoverage(8),
		channel.NegBinCoverage{Mean: 8, Dispersion: 2},
		channel.NormalCoverage{Mean: 8, SD: 3},
		channel.Pipeline{Stages: []channel.Stage{channel.GCBias{Strength: 1.5}}}.BindCoverage(channel.FixedCoverage(8)),
	}
	for i, cov := range models {
		sim := channel.Simulator{Channel: ch, Coverage: cov}
		ds := sim.Simulate(cov.Name(), refs, scale.Seed+1101+uint64(i))
		stats := ds.ComputeStats()
		ps, pc := reconstructAccuracy(recon.NewIterative(), ds)
		t.Rows = append(t.Rows, []string{
			cov.Name(),
			fmt.Sprintf("%d", stats.Erasures),
			fmt.Sprintf("%d", stats.MinCoverage),
			fmt.Sprintf("%d", stats.MaxCoverage),
			pct(ps), pct(pc),
		})
	}
	return t
}

// AblationAlgorithms is the full algorithm roster on the real data — the
// downstream-user view of the library: every reconstructor at N=5 and N=6.
func AblationAlgorithms(wb *Workbench) (Table, error) {
	t := Table{
		ID:      "abl.algorithms",
		Title:   "Every reconstruction algorithm on the real data",
		Headers: []string{"Algorithm", "N=5 per-strand (%)", "N=5 per-char (%)", "N=6 per-strand (%)", "N=6 per-char (%)"},
	}
	ds5, err := wb.FixedCoverage(5, 10)
	if err != nil {
		return Table{}, err
	}
	ds6, err := wb.FixedCoverage(6, 10)
	if err != nil {
		return Table{}, err
	}
	for _, alg := range recon.All() {
		ps5, pc5 := reconstructAccuracy(alg, ds5)
		ps6, pc6 := reconstructAccuracy(alg, ds6)
		t.Rows = append(t.Rows, []string{alg.Name(), pct(ps5), pct(pc5), pct(ps6), pct(pc6)})
	}
	return t, nil
}
