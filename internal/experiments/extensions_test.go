package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestAblationHomopolymer(t *testing.T) {
	tab, err := AblationHomopolymer(Scale{Clusters: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	flat := cell(t, tab, 0, 1)
	boosted := cell(t, tab, 1, 1)
	if boosted < flat*1.5 {
		t.Errorf("boosted ratio %.2f not clearly above flat %.2f", boosted, flat)
	}
}

func TestAblationCoverageModels(t *testing.T) {
	tab := AblationCoverageModels(Scale{Clusters: 250, Seed: 4})
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Fixed coverage has no erasures; the overdispersed negative binomial
	// should have some and should trail fixed coverage in accuracy.
	fixedErasures, _ := strconv.Atoi(tab.Rows[0][1])
	nbErasures, _ := strconv.Atoi(tab.Rows[2][1])
	if fixedErasures != 0 {
		t.Errorf("fixed coverage erasures = %d", fixedErasures)
	}
	if nbErasures == 0 {
		t.Error("negative-binomial produced no erasures")
	}
	if cell(t, tab, 2, 4) >= cell(t, tab, 0, 4) {
		t.Errorf("negbin per-strand %.2f not below fixed %.2f", cell(t, tab, 2, 4), cell(t, tab, 0, 4))
	}
}

func TestAblationAlgorithms(t *testing.T) {
	wb := testWorkbench(t)
	tab, err := AblationAlgorithms(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 6 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Per-char accuracy holds or improves from N=5 to N=6 — with slack for
	// even-coverage vote ties (3–3 splits), which genuinely hurt the
	// column-voting algorithms at N=6.
	for i, row := range tab.Rows {
		n5 := cell(t, tab, i, 2)
		n6 := cell(t, tab, i, 4)
		if n6 < n5-4 {
			t.Errorf("%s: per-char regressed from N=5 (%.2f) to N=6 (%.2f)", row[0], n5, n6)
		}
	}
}

func TestAblationAffineExtraction(t *testing.T) {
	wb := testWorkbench(t)
	tab, err := AblationAffineExtraction(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Affine burst probability must be at least the unit-cost one.
	if cell(t, tab, 1, 2) < cell(t, tab, 0, 2)*0.95 {
		t.Errorf("affine long-del p %.4f below unit %.4f", cell(t, tab, 1, 2), cell(t, tab, 0, 2))
	}
	// Aggregates stay comparable across cost models.
	ratio := cell(t, tab, 1, 1) / cell(t, tab, 0, 1)
	if ratio < 0.9 || ratio > 1.25 {
		t.Errorf("aggregate ratio across cost models = %.3f", ratio)
	}
}

func TestExtWeightedIterative(t *testing.T) {
	tab := ExtWeightedIterative(Scale{Clusters: 250, Seed: 15})
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	parse := func(row, col int) (ps float64) {
		parts := strings.Split(tab.Rows[row][col], " / ")
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			t.Fatalf("cell (%d,%d): %v", row, col, err)
		}
		return v
	}
	// Under the heaviest contamination, the weighted variant must beat
	// the plain sweep per-strand.
	plain := parse(3, 1)
	weighted := parse(3, 2)
	if weighted <= plain {
		t.Errorf("weighted %.2f not above plain %.2f at 3 contaminants", weighted, plain)
	}
	// With no contamination the two should be comparable.
	if d := parse(0, 2) - parse(0, 1); d < -4 {
		t.Errorf("weighted costs %.2f pp on clean clusters", -d)
	}
}

func TestExtChimera(t *testing.T) {
	tab, err := ExtChimera(Scale{Clusters: 250, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	parse := func(row, col int) float64 {
		parts := strings.Split(tab.Rows[row][col], " / ")
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			t.Fatalf("cell (%d,%d): %v", row, col, err)
		}
		return v
	}
	// Accuracy decays with the chimera rate.
	if parse(3, 1) >= parse(0, 1) {
		t.Errorf("plain Iterative did not degrade with chimeras: %.2f vs %.2f", parse(3, 1), parse(0, 1))
	}
	// Weighting recovers some of the loss at the highest rate.
	if parse(3, 2) <= parse(3, 1)-0.5 {
		t.Errorf("weighted (%.2f) below plain (%.2f) under chimeras", parse(3, 2), parse(3, 1))
	}
}

// TestExtStageConvergence: at equal aggregate rate, the single-pass
// channel reconstructs better than the 4-stage strand pipeline at N=6 —
// the §4.2 finding that composing stages concentrates errors.
func TestExtStageConvergence(t *testing.T) {
	tab := ExtStageConvergence(Scale{Clusters: 200, Seed: 7})
	if len(tab.Rows) != 25 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	perStrand := func(channel string) float64 {
		for i, row := range tab.Rows {
			if row[0] == channel && row[3] == "6" {
				return cell(t, tab, i, 4)
			}
		}
		t.Fatalf("no N=6 row for %q", channel)
		return 0
	}
	single, staged := perStrand("single-pass aggregate"), perStrand("4-stage strand")
	if single <= staged {
		t.Errorf("single-pass per-strand %.2f not above 4-stage strand %.2f at N=6", single, staged)
	}
	if agg := cell(t, tab, 0, 1); math.Abs(agg-0.059) > 1e-9 {
		t.Errorf("single-pass aggregate rate = %v, want 0.059", agg)
	}
}
