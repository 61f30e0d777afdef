package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 collisions between distinct seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(6)
	const n, k = 100000, 10
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		counts[r.Intn(k)]++
	}
	want := float64(n) / k
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(8)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			n++
		}
	}
	if math.Abs(float64(n)/trials-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", float64(n)/trials)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	f := func(nRaw uint8) bool {
		n := int(nRaw % 50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(10)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("normal mean = %v, want 3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("normal variance = %v, want 4", variance)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(11)
	for _, lambda := range []float64{0.5, 4, 25, 60} {
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(r.Poisson(lambda))
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.2 {
			t.Errorf("Poisson(%v) variance = %v", lambda, variance)
		}
	}
	if New(1).Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(13)
	for _, c := range []struct{ shape, scale float64 }{{0.5, 2}, {2, 3}, {9, 0.5}} {
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := r.Gamma(c.shape, c.scale)
			if x < 0 {
				t.Fatalf("negative gamma deviate %v", x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.02 {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar+0.05 {
			t.Errorf("Gamma(%v,%v) variance = %v, want %v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestNegBinomialMoments(t *testing.T) {
	r := New(14)
	mu, k := 27.0, 3.0
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := float64(r.NegBinomialMeanDisp(mu, k))
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	wantVar := mu + mu*mu/k
	if math.Abs(mean-mu) > 0.03*mu {
		t.Errorf("NB mean = %v, want %v", mean, mu)
	}
	if math.Abs(variance-wantVar) > 0.1*wantVar {
		t.Errorf("NB variance = %v, want %v", variance, wantVar)
	}
	if New(1).NegBinomialMeanDisp(0, 1) != 0 {
		t.Error("NB(mu=0) != 0")
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(16)
	for _, c := range []struct {
		n int
		p float64
	}{{10, 0.5}, {200, 0.1}} {
		const trials = 50000
		sum := 0.0
		for i := 0; i < trials; i++ {
			k := r.Binomial(c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("binomial out of range: %d", k)
			}
			sum += float64(k)
		}
		mean := sum / trials
		want := float64(c.n) * c.p
		if math.Abs(mean-want) > 0.05*want+0.05 {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, want)
		}
	}
	if New(1).Binomial(5, 0) != 0 {
		t.Error("Binomial(n,0) != 0")
	}
	if New(1).Binomial(5, 1) != 5 {
		t.Error("Binomial(5,1) != 5")
	}
}

func TestShuffleUniformity(t *testing.T) {
	// All 6 permutations of 3 elements should appear with roughly equal
	// frequency.
	r := New(18)
	counts := map[[3]int]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		p := r.Perm(3)
		counts[[3]int{p[0], p[1], p[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d permutations, want 6", len(counts))
	}
	for perm, c := range counts {
		if math.Abs(float64(c)-n/6.0) > 5*math.Sqrt(n/6.0) {
			t.Errorf("perm %v count %d deviates from %v", perm, c, n/6.0)
		}
	}
}

// TestMix64IsSplitMix64Output: Mix64 of the first SplitMix64 state from
// seed 0 is SplitMix64's published first output for that seed.
func TestMix64IsSplitMix64Output(t *testing.T) {
	if got := Mix64(0x9e3779b97f4a7c15); got != 0xe220a8397b1dcdaf {
		t.Errorf("Mix64 = %#x, want 0xe220a8397b1dcdaf", got)
	}
	var state uint64
	if got := splitMix64(&state); got != 0xe220a8397b1dcdaf {
		t.Errorf("splitMix64 = %#x, want 0xe220a8397b1dcdaf", got)
	}
}
