package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	wbOnce sync.Once
	wbMem  *Workbench
	wbErr  error
)

// testWorkbench builds one shared workbench for the whole test run.
func testWorkbench(t *testing.T) *Workbench {
	t.Helper()
	wbOnce.Do(func() {
		wbMem, wbErr = NewWorkbench(Scale{Clusters: 500, Seed: 1})
	})
	if wbErr != nil {
		t.Fatal(wbErr)
	}
	return wbMem
}

// cell parses a numeric table cell.
func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: cell (%d,%d) out of range", tab.ID, row, col)
	}
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestWorkbenchRejectsBadScale(t *testing.T) {
	if _, err := NewWorkbench(Scale{}); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestTable11Static(t *testing.T) {
	tab := Table11()
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "Nanopore") {
		t.Error("render missing Nanopore")
	}
	if !strings.Contains(tab.CSV(), "Sanger") {
		t.Error("CSV missing Sanger")
	}
}

func TestTable21Direction(t *testing.T) {
	wb := testWorkbench(t)
	tab := Table21(wb)
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Paper's core finding: simulated per-strand accuracy consistently
	// EXCEEDS real data for BMA (col 2) and Iterative (col 4).
	realBMA, realIter := cell(t, tab, 0, 2), cell(t, tab, 0, 4)
	for row := 1; row < 4; row++ {
		if simBMA := cell(t, tab, row, 2); simBMA <= realBMA {
			t.Errorf("row %d (%s): simulated BMA %.2f not above real %.2f", row, tab.Rows[row][0], simBMA, realBMA)
		}
		if simIter := cell(t, tab, row, 4); simIter <= realIter {
			t.Errorf("row %d (%s): simulated Iterative %.2f not above real %.2f", row, tab.Rows[row][0], simIter, realIter)
		}
	}
	// DivBMA collapses on the indel-heavy Nanopore regime (paper: 0.4-3%).
	for row := 0; row < 4; row++ {
		if div := cell(t, tab, row, 3); div > 40 {
			t.Errorf("row %d: DivBMA %.2f unexpectedly high", row, div)
		}
	}
}

func TestTable22Direction(t *testing.T) {
	wb := testWorkbench(t)
	tab, err := Table22(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Rows alternate real, simulated per coverage. Per-strand accuracy
	// (cols 2 and 4) shows the static-profile optimism strictly; per-char
	// (cols 3 and 5) is allowed to sit near parity — skewed real errors
	// cluster at terminals and damage few characters per failing strand,
	// a divergence from the paper's hard-coded-dictionary baseline that
	// EXPERIMENTS.md documents.
	for pair := 0; pair < 2; pair++ {
		realRow, simRow := 2*pair, 2*pair+1
		for _, col := range []int{2, 4} {
			if cell(t, tab, simRow, col) <= cell(t, tab, realRow, col) {
				t.Errorf("coverage pair %d col %d: simulated %.2f not above real %.2f",
					pair, col, cell(t, tab, simRow, col), cell(t, tab, realRow, col))
			}
		}
		for _, col := range []int{3, 5} {
			if cell(t, tab, simRow, col) <= cell(t, tab, realRow, col)-2 {
				t.Errorf("coverage pair %d col %d: simulated per-char %.2f far below real %.2f",
					pair, col, cell(t, tab, simRow, col), cell(t, tab, realRow, col))
			}
		}
	}
	// Accuracy grows with coverage on the real data.
	if cell(t, tab, 2, 2) <= cell(t, tab, 0, 2) {
		t.Error("real BMA accuracy did not improve from N=5 to N=6")
	}
}

func TestTable31Convergence(t *testing.T) {
	wb := testWorkbench(t)
	tab, err := Table31(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Row order: Nanopore, Naive, +Cond, +Skew, +2nd-order.
	realBMAps, realBMApc := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	naiveBMAps := cell(t, tab, 1, 1)
	finalBMAps, finalBMApc := cell(t, tab, 4, 1), cell(t, tab, 4, 2)

	// The paper's headline: each tier moves BMA closer to real data; the
	// final tier's gap is far below the naive tier's gap.
	naiveGap := naiveBMAps - realBMAps
	finalGap := finalBMAps - realBMAps
	if naiveGap <= 0 {
		t.Fatalf("naive simulator (%.2f) not above real (%.2f)?", naiveBMAps, realBMAps)
	}
	if finalGap >= naiveGap*0.8 {
		t.Errorf("full model BMA gap %.2f did not shrink vs naive gap %.2f", finalGap, naiveGap)
	}
	if absF(finalBMApc-realBMApc) > 6 {
		t.Errorf("full model per-char %.2f too far from real %.2f", finalBMApc, realBMApc)
	}

	// The Iterative over-correction: the skew tier drops Iterative
	// accuracy to or below the real data's (paper: 35.36 vs 66.70).
	realIter := cell(t, tab, 0, 3)
	naiveIter := cell(t, tab, 1, 3)
	skewIter := cell(t, tab, 3, 3)
	if naiveIter <= realIter {
		t.Errorf("naive Iterative %.2f not above real %.2f", naiveIter, realIter)
	}
	if skewIter >= naiveIter {
		t.Errorf("skew tier did not reduce Iterative accuracy (%.2f vs naive %.2f)", skewIter, naiveIter)
	}
}

func TestTable32SameShapeAsTable31(t *testing.T) {
	wb := testWorkbench(t)
	tab, err := Table32(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// N=6 accuracies exceed N=5 for the real data rows.
	tab5, err := Table31(wb)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tab, 0, 1) <= cell(t, tab5, 0, 1)-3 {
		t.Errorf("real BMA at N=6 (%.2f) below N=5 (%.2f)", cell(t, tab, 0, 1), cell(t, tab5, 0, 1))
	}
}

func TestFigure32Shape(t *testing.T) {
	wb := testWorkbench(t)
	s := Figure32(wb)
	if len(s.Columns) != 2 {
		t.Fatalf("got %d columns", len(s.Columns))
	}
	ham, ges := s.Columns[0].Y, s.Columns[1].Y
	// Hamming grows roughly linearly. The boosted positions 0–1 seed a
	// propagation baseline that inflates the "early" region, so assert a
	// sustained rise rather than a full doubling.
	early := avg(ham[5:25])
	late := avg(ham[85:105])
	if late < 1.5*early {
		t.Errorf("hamming profile not increasing: early %v late %v", early, late)
	}
	mid := avg(ham[45:65])
	if late < mid || mid < early {
		t.Errorf("hamming profile not monotone: early %v mid %v late %v", early, mid, late)
	}
	// Gestalt is terminal-concentrated with a flat interior.
	interior := avg(ges[20:90])
	if ges[0] < 2*interior {
		t.Errorf("gestalt start %v not above interior %v", ges[0], interior)
	}
	endMass := ges[108] + ges[109] + ges[110]
	if endMass < 3*interior {
		t.Errorf("gestalt end mass %v not above interior %v", endMass, interior)
	}
}

func TestFigure33CoverageCurve(t *testing.T) {
	wb := testWorkbench(t)
	s, err := Figure33(wb)
	if err != nil {
		t.Fatal(err)
	}
	ps := s.Columns[0].Y
	if len(ps) != 10 {
		t.Fatalf("got %d coverages", len(ps))
	}
	// Rapid growth through 4-6, flattening beyond 7 (paper Fig 3.3).
	if ps[5] <= ps[0] {
		t.Errorf("accuracy did not grow: N=1 %.2f, N=6 %.2f", ps[0], ps[5])
	}
	growthEarly := ps[5] - ps[2] // N=3 -> N=6
	growthLate := ps[9] - ps[6]  // N=7 -> N=10
	if growthLate >= growthEarly {
		t.Errorf("curve did not flatten: early growth %.2f, late growth %.2f", growthEarly, growthLate)
	}
}

func TestFigure34Shapes(t *testing.T) {
	wb := testWorkbench(t)
	s, err := Figure34(wb, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Columns) != 4 {
		t.Fatalf("got %d columns", len(s.Columns))
	}
	// Iterative hamming errors grow toward the end; BMA hamming peaks in
	// the middle (A-shape).
	iterH := s.Columns[0].Y
	bmaH := s.Columns[2].Y
	if avg(iterH[80:108]) <= avg(iterH[5:30]) {
		t.Error("Iterative hamming not end-weighted")
	}
	mid := avg(bmaH[40:70])
	edges := (avg(bmaH[0:15]) + avg(bmaH[95:109])) / 2
	if mid <= edges {
		t.Errorf("BMA hamming not middle-weighted: mid %v edges %v", mid, edges)
	}
}

func TestFigure36SecondOrder(t *testing.T) {
	wb := testWorkbench(t)
	tab := Figure36Table(wb)
	if len(tab.Rows) != 11 { // 10 errors + combined row
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// The combined share should be substantial (ground truth: 56%).
	combined, err := strconv.ParseFloat(tab.Rows[10][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	// The paper measures 56% on real Nanopore data, whose error taxonomy
	// includes multi-base categories; our synthetic channel produces only
	// single-base categories (20 in total), so the top-10 capture more.
	// Dominance of single-base errors is the property that must hold.
	if combined < 50 {
		t.Errorf("top-10 combined share %.2f%%, want dominant (paper: 56%%)", combined)
	}
	sp := Figure36Spatial(wb, 3)
	if len(sp.Columns) != 3 {
		t.Fatalf("got %d spatial columns", len(sp.Columns))
	}
}

func TestFigure310AShapeBeatsVShape(t *testing.T) {
	scale := Scale{Clusters: 300, Seed: 5}
	tab := Figure310Accuracy(scale, 5)
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// Rows: uniform, a-shape, v-shape. Paper: BMA is MORE accurate on
	// A-shaped and LESS accurate on V-shaped than uniform.
	uniform := cell(t, tab, 0, 2)
	aShape := cell(t, tab, 1, 2)
	vShape := cell(t, tab, 2, 2)
	if aShape <= vShape {
		t.Errorf("A-shape per-char %.2f not above V-shape %.2f", aShape, vShape)
	}
	if aShape <= uniform-1 {
		t.Errorf("A-shape %.2f should be at or above uniform %.2f", aShape, uniform)
	}
	if vShape >= uniform {
		t.Errorf("V-shape %.2f should be below uniform %.2f", vShape, uniform)
	}
}

func TestExtTwoWayIterative(t *testing.T) {
	wb := testWorkbench(t)
	tab, err := ExtTwoWayIterative(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// On the uniform and end-skewed rows the two-way variant must match
	// or beat one-way per-char (rows 0-1 = uniform iter/2way, 3-4 =
	// skewed iter/2way).
	for _, base := range []int{0, 3} {
		one := cell(t, tab, base, 3)
		two := cell(t, tab, base+1, 3)
		if two < one-0.3 {
			t.Errorf("rows %d/%d: two-way per-char %.2f below one-way %.2f", base, base+1, two, one)
		}
	}
}

func TestAblations(t *testing.T) {
	scale := Scale{Clusters: 200, Seed: 7}
	win := AblationBMAWindow(scale)
	if len(win.Rows) != 5 {
		t.Fatalf("window rows = %d", len(win.Rows))
	}
	// Window 3 should beat window 1 (no look-ahead degenerates badly).
	if cell(t, win, 2, 2) <= cell(t, win, 0, 2) {
		t.Errorf("window 3 per-char %.2f not above window 1 %.2f", cell(t, win, 2, 2), cell(t, win, 0, 2))
	}
	splice := AblationSplice(scale)
	if len(splice.Rows) != 2 {
		t.Fatalf("splice rows = %d", len(splice.Rows))
	}
	// Anchored splice should not lose to plain splice.
	if cell(t, splice, 1, 1) < cell(t, splice, 0, 1)-1 {
		t.Errorf("anchored splice %.2f worse than plain %.2f", cell(t, splice, 1, 1), cell(t, splice, 0, 1))
	}
}

func TestAblationScriptPolicyAndCensus(t *testing.T) {
	wb := testWorkbench(t)
	tab, err := AblationScriptPolicy(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("script rows = %d", len(tab.Rows))
	}
	// Aggregate rate is policy-invariant.
	if absF(cell(t, tab, 0, 1)-cell(t, tab, 1, 1)) > 1e-6 {
		t.Error("aggregate differs across tie-break policies")
	}
	census, err := AblationResidualCensus(wb)
	if err != nil {
		t.Fatal(err)
	}
	// Iterative row: deletions dominate residual errors (§3.4.1).
	if cell(t, census, 0, 2) < 40 {
		t.Errorf("Iterative residual deletion share %.2f%%, want dominant", cell(t, census, 0, 2))
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is slow")
	}
	wb := testWorkbench(t)
	scale := Scale{Clusters: 150, Seed: 9}
	for _, e := range Registry() {
		results, err := e.Run(wb, scale)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(results) == 0 {
			t.Errorf("%s: no results", e.ID)
		}
		for _, r := range results {
			if r.Render() == "" || r.CSV() == "" {
				t.Errorf("%s: empty rendering", e.ID)
			}
		}
	}
	if _, err := Lookup("table2.1"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestSeriesRenderAndCSV(t *testing.T) {
	s := Series{
		ID: "x", Title: "t", XLabel: "pos",
		X:       []float64{0, 1, 2},
		Columns: []SeriesColumn{{Label: "a", Y: []float64{1, 2, 3}}},
	}
	if !strings.Contains(s.CSV(), "pos,a") {
		t.Errorf("CSV header wrong: %q", s.CSV())
	}
	if !strings.Contains(s.Render(), "#") {
		t.Error("render has no bars")
	}
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
