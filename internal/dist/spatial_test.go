package dist

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func meanOK(t *testing.T, name string, rates []float64, want float64) {
	t.Helper()
	got := Mean(rates)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("%s: mean = %v, want %v", name, got, want)
	}
}

func ratesInRange(t *testing.T, name string, rates []float64) {
	t.Helper()
	for i, r := range rates {
		if r < 0 || r > maxRate+eps {
			t.Errorf("%s: rate[%d] = %v out of [0, %v]", name, i, r, maxRate)
		}
	}
}

func TestUniformRates(t *testing.T) {
	rates := Uniform{}.Rates(110, 0.059)
	meanOK(t, "uniform", rates, 0.059)
	ratesInRange(t, "uniform", rates)
	for i := 1; i < len(rates); i++ {
		if rates[i] != rates[0] {
			t.Fatalf("uniform rates differ at %d", i)
		}
	}
}

func TestTriangularAShape(t *testing.T) {
	rates := TriangularA{}.Rates(110, 0.15)
	meanOK(t, "a-shape", rates, 0.15)
	ratesInRange(t, "a-shape", rates)
	mid := rates[55]
	if mid <= rates[0] || mid <= rates[109] {
		t.Errorf("a-shape: middle (%v) not above ends (%v, %v)", mid, rates[0], rates[109])
	}
	// Peak should be near 2x the mean (paper: b = 0.30 for mean 0.15).
	if math.Abs(mid-0.30) > 0.02 {
		t.Errorf("a-shape peak = %v, want ~0.30", mid)
	}
	// Monotone rise to the middle.
	for i := 1; i <= 54; i++ {
		if rates[i] < rates[i-1]-eps {
			t.Errorf("a-shape not monotone rising at %d", i)
		}
	}
}

func TestTriangularVShape(t *testing.T) {
	rates := TriangularV{}.Rates(110, 0.15)
	meanOK(t, "v-shape", rates, 0.15)
	ratesInRange(t, "v-shape", rates)
	mid := rates[55]
	if mid >= rates[0] || mid >= rates[109] {
		t.Errorf("v-shape: middle (%v) not below ends (%v, %v)", mid, rates[0], rates[109])
	}
	if math.Abs(rates[0]-0.30) > 0.02 {
		t.Errorf("v-shape edge = %v, want ~0.30", rates[0])
	}
}

func TestAVShapesAreComplementary(t *testing.T) {
	a := TriangularA{}.Rates(100, 0.1)
	v := TriangularV{}.Rates(100, 0.1)
	for i := range a {
		if math.Abs((a[i]+v[i])-0.2) > 1e-9 {
			t.Fatalf("a+v at %d = %v, want 0.2", i, a[i]+v[i])
		}
	}
}

func TestTerminalSkew(t *testing.T) {
	s := NanoporeSkew()
	rates := s.Rates(110, 0.059)
	meanOK(t, "terminal-skew", rates, 0.059)
	ratesInRange(t, "terminal-skew", rates)
	interior := rates[50]
	if rates[0] <= interior || rates[1] <= interior {
		t.Error("start positions not boosted")
	}
	if rates[109] <= interior {
		t.Error("end position not boosted")
	}
	// End ~2x start (paper's Fig 3.2b observation).
	ratio := rates[109] / rates[0]
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("end/start boost ratio = %v, want ~2", ratio)
	}
	if rates[2] != interior {
		t.Errorf("position 2 should be interior, got %v vs %v", rates[2], interior)
	}
}

func TestTerminalSkewTinyStrand(t *testing.T) {
	s := NanoporeSkew()
	rates := s.Rates(2, 0.1)
	meanOK(t, "terminal-skew tiny", rates, 0.1)
	ratesInRange(t, "terminal-skew tiny", rates)
}

func TestEmpiricalExactLength(t *testing.T) {
	e := Empirical{Weights: []float64{1, 2, 3, 4}}
	rates := e.Rates(4, 0.1)
	meanOK(t, "empirical", rates, 0.1)
	// shape preserved: proportional to weights
	for i := 1; i < 4; i++ {
		ratio := rates[i] / rates[0]
		if math.Abs(ratio-float64(i+1)) > 1e-9 {
			t.Errorf("empirical shape distorted at %d: ratio %v", i, ratio)
		}
	}
}

func TestEmpiricalResample(t *testing.T) {
	e := Empirical{Weights: []float64{1, 1, 10, 1, 1}}
	rates := e.Rates(50, 0.05)
	meanOK(t, "empirical resampled", rates, 0.05)
	// Peak should be near the middle.
	peak := 0
	for i, r := range rates {
		if r > rates[peak] {
			peak = i
		}
	}
	if peak < 20 || peak > 30 {
		t.Errorf("resampled peak at %d, want near 25", peak)
	}
}

func TestEmpiricalEmptyFallsBackToUniform(t *testing.T) {
	rates := Empirical{}.Rates(10, 0.1)
	meanOK(t, "empirical empty", rates, 0.1)
	for i := 1; i < len(rates); i++ {
		if rates[i] != rates[0] {
			t.Fatal("empty empirical should be uniform")
		}
	}
}

func TestEmpiricalSingleWeight(t *testing.T) {
	rates := Empirical{Weights: []float64{3}}.Rates(7, 0.2)
	meanOK(t, "empirical single", rates, 0.2)
}

func TestClampingPreservesMean(t *testing.T) {
	// Extreme skew at high rate forces clamping; aggregate must hold as long
	// as target <= maxRate.
	e := Empirical{Weights: []float64{100, 1, 1, 1}}
	rates := e.Rates(4, 0.5)
	meanOK(t, "clamped", rates, 0.5)
	ratesInRange(t, "clamped", rates)
	if rates[0] != maxRate {
		t.Errorf("dominant position should clamp to %v, got %v", maxRate, rates[0])
	}
}

func TestZeroRate(t *testing.T) {
	for _, s := range []Spatial{Uniform{}, TriangularA{}, TriangularV{}, NanoporeSkew()} {
		rates := s.Rates(20, 0)
		for i, r := range rates {
			if r != 0 {
				t.Errorf("%s: rate[%d] = %v at zero aggregate", s.Name(), i, r)
			}
		}
	}
}

func TestMeanInvariantQuick(t *testing.T) {
	f := func(lenRaw uint8, rateRaw uint16) bool {
		length := int(lenRaw%200) + 1
		rate := float64(rateRaw%900) / 1000 // [0, 0.9)
		for _, s := range []Spatial{Uniform{}, TriangularA{}, TriangularV{}, NanoporeSkew()} {
			rates := s.Rates(length, rate)
			if len(rates) != length {
				return false
			}
			if math.Abs(Mean(rates)-rate) > 1e-6 {
				return false
			}
			for _, r := range rates {
				if r < 0 || r > maxRate+eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "a-shape", "v-shape", "terminal-skew"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should fail")
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero length", func() { Uniform{}.Rates(0, 0.1) })
	mustPanic("negative rate", func() { Uniform{}.Rates(5, -0.1) })
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean([1,2,3]) != 2")
	}
}

// --- downsampling (area-weighted) ---

// TestResampleDownMassConservation: downsampling must conserve the
// histogram's mass — mean(out) == mean(src) — for arbitrary shapes and
// arbitrary output sizes. The old centre-point sampling violated this
// whenever a narrow spike fell between output bin centres.
func TestResampleDownMassConservation(t *testing.T) {
	cases := []struct {
		name string
		src  []float64
		n    int
	}{
		{"smooth", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4},
		{"terminal-spike", append(make([]float64, 99), 50), 10},
		{"leading-spike", append([]float64{50}, make([]float64, 99)...), 7},
		{"interior-spike", func() []float64 {
			w := make([]float64, 200)
			for i := range w {
				w[i] = 1
			}
			w[137] = 300
			return w
		}(), 33},
		{"non-divisible", []float64{1, 0, 0, 0, 0, 0, 9}, 3},
	}
	for _, tc := range cases {
		out := resample(tc.src, tc.n)
		if len(out) != tc.n {
			t.Fatalf("%s: len = %d, want %d", tc.name, len(out), tc.n)
		}
		if got, want := Mean(out), Mean(tc.src); math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s: mean(out) = %v, want mean(src) = %v", tc.name, got, want)
		}
	}
}

// TestResampleDownTerminalSpikeSurvives pins the Fig 3.2b failure mode: a
// single boosted terminal bin must keep its boost (attenuated by the bin
// ratio, not erased) after downsampling.
func TestResampleDownTerminalSpikeSurvives(t *testing.T) {
	src := make([]float64, 100)
	for i := range src {
		src[i] = 1
	}
	src[99] = 101 // terminal spike carrying 50% extra mass
	out := resample(src, 10)
	last := out[len(out)-1]
	// The last output bin averages 10 source bins: (9·1 + 101)/10 = 11.
	if math.Abs(last-11) > 1e-9 {
		t.Errorf("terminal bin = %v, want 11 (spike aliased away?)", last)
	}
	for i := 0; i < len(out)-1; i++ {
		if math.Abs(out[i]-1) > 1e-9 {
			t.Errorf("interior bin %d = %v, want 1", i, out[i])
		}
	}
}

// TestResampleDownMassConservationQuick fuzzes shapes and sizes.
func TestResampleDownMassConservationQuick(t *testing.T) {
	f := func(raw []byte, nRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		src := make([]float64, len(raw))
		for i, b := range raw {
			src[i] = float64(b)
		}
		n := 1 + int(nRaw)%len(src)
		out := resample(src, n)
		return math.Abs(Mean(out)-Mean(src)) <= 1e-9*math.Max(1, Mean(src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Mean returns the arithmetic mean of a rate vector; 0 for empty input.
func Mean(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(len(rates))
}
