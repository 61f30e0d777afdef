package experiments

import (
	"strconv"
	"testing"
)

func TestAppendixC(t *testing.T) {
	wb := testWorkbench(t)
	series, err := AppendixC(wb, 5)
	if err != nil {
		t.Fatal(err)
	}
	// One panel per dataset: real + four tiers.
	if len(series) != 5 {
		t.Fatalf("got %d panels", len(series))
	}
	names := channelTierNames(wb)
	for i, s := range series {
		if len(s.Columns) != 4 {
			t.Errorf("panel %d has %d columns", i, len(s.Columns))
		}
		if s.Title == "" || s.ID == "" {
			t.Errorf("panel %d missing metadata", i)
		}
		_ = names[i] // panels follow tier order
	}
}

func TestAppendixCSummaryConvergence(t *testing.T) {
	wb := testWorkbench(t)
	tab, err := AppendixCSummary(wb, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 5 datasets × 2 algorithms.
	if len(tab.Rows) != 10 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	chi := func(row int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][5], 64)
		if err != nil {
			t.Fatalf("row %d χ² cell: %v", row, err)
		}
		return v
	}
	// Row layout: (real, naive, cond, skew, 2nd-order) × (Iterative, BMA).
	// The real rows are distance 0 from themselves.
	if chi(0) != 0 || chi(1) != 0 {
		t.Errorf("real-vs-real χ² = %v, %v", chi(0), chi(1))
	}
	// The final tier's residual profile should sit closer to the real
	// profile than the naive tier's, for BMA (odd rows: 3 = naive BMA,
	// 9 = second-order BMA).
	naiveBMA, finalBMA := chi(3), chi(9)
	if finalBMA >= naiveBMA {
		t.Errorf("BMA residual profile χ²: final tier %.4f not below naive %.4f", finalBMA, naiveBMA)
	}
}

// channelTierNames lists the tier labels in evaluation order, for
// table-reading tests.
func channelTierNames(wb *Workbench) []string {
	out := []string{"Nanopore"}
	for _, tier := range wb.Profile.Tiers(10) {
		out = append(out, tier.Name())
	}
	return out
}
