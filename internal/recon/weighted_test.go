package recon

import (
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/metrics"
)

func TestWeightedIterativeBasics(t *testing.T) {
	ref := dna.Strand("ACGTTGCAACGTACGTACGA")
	alg := NewWeightedIterative()
	if got := alg.Reconstruct([]dna.Strand{ref, ref, ref}, ref.Len()); got != ref {
		t.Errorf("clean cluster gave %q", got)
	}
	if got := alg.Reconstruct(nil, 5); got != "" {
		t.Errorf("empty cluster gave %q", got)
	}
	if alg.Name() != "Iterative-weighted" {
		t.Errorf("Name = %q", alg.Name())
	}
}

func TestWeightedIterativeDownweightsJunkCopy(t *testing.T) {
	// Two good copies against three copies of a *different* strand (the
	// §1.1.2 mis-clustering hazard). An unweighted majority follows the
	// junk (3 > 2); the weighted sweep collapses the junk copies' weights
	// once they lose the opening votes. Scatter the junk copies' first
	// three symbols so the good pair wins those votes.
	good := dna.Strand("ACGTTGCAACGGTACCGATGACGTTGCA")
	junkBody := dna.Strand("AACGTTGCAACGTTGCAACGTTGCA") // 25 bases
	junk1 := "CAT" + junkBody                           // scatter the first
	junk2 := "GTA" + junkBody                           // three positions so
	junk3 := "TAC" + junkBody                           // the good pair wins them
	cluster := []dna.Strand{good, junk1, good, junk2, junk3}
	got := NewWeightedIterative().Reconstruct(cluster, good.Len())
	// The junk copies lose the first three votes, their weights collapse
	// (0.7³ ≈ 0.34 each, 1.03 total vs the good pair's 2.0), and the good
	// copies dictate the rest of the sweep and the weighted refinement.
	if got != good {
		t.Errorf("weighted reconstruct = %q, want %q", got, good)
	}
}

func TestWeightedIterativeCompetitive(t *testing.T) {
	refs := channel.RandomReferences(300, 110, 71)
	sim := channel.Simulator{
		Channel:  channel.NewNaive("n", channel.NanoporeMix(0.059)),
		Coverage: channel.FixedCoverage(5),
	}
	ds := sim.Simulate("w", refs, 72)
	plain := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewIterative(), ds))
	weighted := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewWeightedIterative(), ds))
	// The weighting must not hurt on clean clustered data...
	if weighted.PerChar < plain.PerChar-1 {
		t.Errorf("weighted per-char %.2f below plain %.2f", weighted.PerChar, plain.PerChar)
	}
}

func TestWeightedIterativeRobustToContamination(t *testing.T) {
	// Contaminate every cluster with reads of a different reference: the
	// weighted variant should degrade less than the plain one.
	refs := channel.RandomReferences(200, 110, 73)
	alien := channel.RandomReferences(200, 110, 99)
	m := channel.NewNaive("n", channel.NanoporeMix(0.059))
	sim := channel.Simulator{Channel: m, Coverage: channel.FixedCoverage(5)}
	ds := sim.Simulate("w", refs, 74)
	alienDS := sim.Simulate("a", alien, 75)
	for i := range ds.Clusters {
		// Two alien reads join each 5-read cluster.
		ds.Clusters[i].Reads = append(ds.Clusters[i].Reads, alienDS.Clusters[i].Reads[:2]...)
	}
	plain := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewIterative(), ds))
	weighted := metrics.ComputeAccuracy(ds.References(), ReconstructDataset(NewWeightedIterative(), ds))
	if weighted.PerChar <= plain.PerChar {
		t.Errorf("weighted per-char %.2f not above plain %.2f under contamination", weighted.PerChar, plain.PerChar)
	}
}
