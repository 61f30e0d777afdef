package profile

import (
	"math"
	"testing"

	"dnastore/internal/channel"
)

func TestAffineProfilingSharpensBursts(t *testing.T) {
	// A channel whose only errors are long-deletion bursts.
	m := &channel.Model{Label: "bursts", LongDel: channel.PaperLongDeletion()}
	ds := simulate(m, 400, 110, 10, 31)
	unit, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	affine, err := Profile(ds, Options{Affine: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both recover the burst probability, but the affine extraction should
	// attribute at least as much deletion mass to bursts (it never splits
	// a contiguous run across substitutions).
	ldU, ldA := unit.LongDeletion(), affine.LongDeletion()
	if ldA.Prob < ldU.Prob*0.95 {
		t.Errorf("affine burst probability %v below unit %v", ldA.Prob, ldU.Prob)
	}
	if math.Abs(ldA.Prob-0.0033)/0.0033 > 0.25 {
		t.Errorf("affine burst probability %v, want ~0.0033", ldA.Prob)
	}
	if math.Abs(ldA.MeanLen()-2.17) > 0.2 {
		t.Errorf("affine burst mean length %v, want ~2.17", ldA.MeanLen())
	}
}

func TestAffineProfilingAggregateConsistent(t *testing.T) {
	m := channel.NewNaive("n", channel.NanoporeMix(0.06))
	m.LongDel = channel.PaperLongDeletion()
	ds := simulate(m, 200, 110, 8, 32)
	unit, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	affine, err := Profile(ds, Options{Affine: true})
	if err != nil {
		t.Fatal(err)
	}
	// Affine scripts may cost more ops than minimal unit scripts, but the
	// overall error-mass estimate should stay close.
	ratio := affine.AggregateRate() / unit.AggregateRate()
	if ratio < 0.95 || ratio > 1.20 {
		t.Errorf("affine/unit aggregate ratio = %v", ratio)
	}
}

func TestAffineOptionsValidation(t *testing.T) {
	m := channel.NewNaive("n", channel.EqualMix(0.02))
	ds := simulate(m, 20, 60, 3, 33)
	if _, err := Profile(ds, Options{Affine: true, RandomizeScripts: true}); err == nil {
		t.Error("affine + randomized accepted")
	}
}
