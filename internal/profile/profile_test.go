package profile

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/wetlab"
)

// simulate builds a dataset from a channel for profiling tests.
func simulate(ch channel.Channel, n, length, cov int, seed uint64) *dataset.Dataset {
	refs := channel.RandomReferences(n, length, seed)
	sim := channel.Simulator{Channel: ch, Coverage: channel.FixedCoverage(cov)}
	return sim.Simulate("test", refs, seed+1)
}

func TestProfileRejectsEmpty(t *testing.T) {
	if _, err := Profile(&dataset.Dataset{Name: "empty"}, Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
	ds := &dataset.Dataset{Clusters: []dataset.Cluster{{Ref: "ACGT"}}}
	if _, err := Profile(ds, Options{}); err == nil {
		t.Error("dataset with only erasures accepted")
	}
}

func TestProfileCleanChannel(t *testing.T) {
	ds := simulate(channel.NewNaive("clean", channel.Rates{}), 20, 50, 3, 1)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.AggregateRate() != 0 {
		t.Errorf("clean channel aggregate = %v", p.AggregateRate())
	}
	if p.Reads != 60 {
		t.Errorf("reads = %d", p.Reads)
	}
	if p.StrandLen != 50 {
		t.Errorf("strand len = %d", p.StrandLen)
	}
}

func TestProfileRecoversAggregateRates(t *testing.T) {
	// The second input has the shape of a cleaner technology: 0.5%
	// aggregate, substitution-dominant and transition-biased, with a mild
	// quality ramp at both read ends.
	clean := channel.NewNaive("clean", channel.Rates{Sub: 0.004, Ins: 0.0004, Del: 0.0006})
	clean.SubMatrix = channel.TransitionBiasedSubMatrix(0.6)
	for _, c := range []struct {
		ch       channel.Channel
		truth    channel.Rates
		tol, agg float64
	}{
		{channel.NewNaive("n", channel.Rates{Sub: 0.03, Ins: 0.01, Del: 0.02}),
			channel.Rates{Sub: 0.03, Ins: 0.01, Del: 0.02}, 0.004, 0.008},
		{clean.WithSpatial(dist.TerminalSkew{StartPositions: 3, EndPositions: 8, StartBoost: 2, EndBoost: 3}),
			channel.Rates{Sub: 0.004, Ins: 0.0004, Del: 0.0006}, 0.0005, 0.0015},
	} {
		ds := simulate(c.ch, 300, 110, 10, 2)
		p, err := Profile(ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, name := p.Rates(), c.ch.Name()
		if math.Abs(got.Sub-c.truth.Sub) > c.tol {
			t.Errorf("%s: sub = %v, want %v", name, got.Sub, c.truth.Sub)
		}
		if math.Abs(got.Ins-c.truth.Ins) > c.tol {
			t.Errorf("%s: ins = %v, want %v", name, got.Ins, c.truth.Ins)
		}
		if math.Abs(got.Del-c.truth.Del) > c.tol {
			t.Errorf("%s: del = %v, want %v", name, got.Del, c.truth.Del)
		}
		want := c.truth.Sub + c.truth.Ins + c.truth.Del
		if math.Abs(p.AggregateRate()-want) > c.agg {
			t.Errorf("%s: aggregate = %v, want %v", name, p.AggregateRate(), want)
		}
	}
}

func TestProfileRecoversConditionalRates(t *testing.T) {
	// G is 3x more error-prone than the other bases.
	m := &channel.Model{Label: "cond"}
	for b := dna.Base(0); b < dna.NumBases; b++ {
		m.PerBase[b] = channel.Rates{Sub: 0.01}
	}
	m.PerBase[dna.G] = channel.Rates{Sub: 0.03}
	ds := simulate(m, 400, 110, 10, 3)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	per := p.PerBaseRates()
	if math.Abs(per[dna.G].Sub-0.03) > 0.005 {
		t.Errorf("P(sub|G) = %v, want 0.03", per[dna.G].Sub)
	}
	if math.Abs(per[dna.A].Sub-0.01) > 0.003 {
		t.Errorf("P(sub|A) = %v, want 0.01", per[dna.A].Sub)
	}
}

func TestProfileRecoversSubConfusion(t *testing.T) {
	m := channel.NewNaive("sub", channel.Rates{Sub: 0.05})
	m.SubMatrix = channel.TransitionBiasedSubMatrix(0.8)
	ds := simulate(m, 300, 110, 10, 4)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	conf := p.SubConfusion()
	// A→G should dominate row A at ~0.8.
	if math.Abs(conf[dna.A][dna.G]-0.8) > 0.05 {
		t.Errorf("P(G|sub A) = %v, want ~0.8", conf[dna.A][dna.G])
	}
	// Rows sum to 1.
	for b := 0; b < dna.NumBases; b++ {
		sum := 0.0
		for c := 0; c < dna.NumBases; c++ {
			sum += conf[b][c]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", b, sum)
		}
	}
}

func TestProfileRecoversLongDeletions(t *testing.T) {
	m := &channel.Model{Label: "ld", LongDel: channel.PaperLongDeletion()}
	ds := simulate(m, 500, 110, 10, 5)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld := p.LongDeletion()
	if math.Abs(ld.Prob-0.0033)/0.0033 > 0.25 {
		t.Errorf("long-del prob = %v, want ~0.0033", ld.Prob)
	}
	if math.Abs(ld.MeanLen()-2.17) > 0.15 {
		t.Errorf("long-del mean length = %v, want ~2.17", ld.MeanLen())
	}
}

func TestProfileRecoversInsDistribution(t *testing.T) {
	m := channel.NewNaive("ins", channel.Rates{Ins: 0.04})
	m.InsDist = [dna.NumBases]float64{dna.A: 0.7, dna.T: 0.3}
	ds := simulate(m, 300, 110, 8, 6)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insd := p.InsDistribution()
	if math.Abs(insd[dna.A]-0.7) > 0.05 {
		t.Errorf("P(ins A) = %v, want ~0.7", insd[dna.A])
	}
	if insd[dna.C] > 0.05 {
		t.Errorf("P(ins C) = %v, want ~0", insd[dna.C])
	}
}

func TestProfileRecoversSpatialSkew(t *testing.T) {
	m := channel.NewNaive("skew", channel.NanoporeMix(0.06)).WithSpatial(dist.NanoporeSkew())
	ds := simulate(m, 400, 110, 10, 7)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := p.SpatialHistogram()
	if len(h) != 110 {
		t.Fatalf("histogram length %d", len(h))
	}
	interior := 0.0
	for i := 20; i < 90; i++ {
		interior += h[i]
	}
	interior /= 70
	if h[0] < 3*interior {
		t.Errorf("position 0 (%v) not elevated vs interior (%v)", h[0], interior)
	}
	if h[109] < 4*interior {
		t.Errorf("final position (%v) not strongly elevated vs interior (%v)", h[109], interior)
	}
}

func TestProfileSecondOrderTable(t *testing.T) {
	// Only one error type: del(G), end-skewed.
	so := channel.SecondOrderError{
		Kind: align.Del, From: dna.G, Rate: 0.08,
		Spatial: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 8},
	}
	m := &channel.Model{Label: "so", SecondOrder: []channel.SecondOrderError{so}}
	ds := simulate(m, 300, 110, 8, 8)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := p.TopSecondOrder(3)
	if len(top) == 0 {
		t.Fatal("no second-order stats")
	}
	if top[0].Kind != align.Del || top[0].From != dna.G {
		t.Fatalf("top error = %v, want del(G)", top[0])
	}
	if share := p.SecondOrderShare(1); share < 0.95 {
		t.Errorf("del(G) share = %v, want ~1", share)
	}
	// Its spatial histogram should be end-heavy.
	sp := top[0].Spatial
	lastDecile, firstDecile := 0.0, 0.0
	for i := 0; i < 11; i++ {
		firstDecile += sp[i]
	}
	for i := 99; i < len(sp); i++ {
		lastDecile += sp[i]
	}
	if lastDecile < 3*firstDecile {
		t.Errorf("del(G) spatial not end-heavy: first %v, last %v", firstDecile, lastDecile)
	}
	if !strings.Contains(top[0].String(), "del(G)") {
		t.Errorf("String = %q", top[0].String())
	}
}

func TestProfileRandomizedScripts(t *testing.T) {
	m := channel.NewNaive("n", channel.EqualMix(0.05))
	ds := simulate(m, 100, 110, 5, 9)
	a, err := Profile(ds, Options{RandomizeScripts: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Total error mass must agree regardless of tie-break policy.
	if math.Abs(a.AggregateRate()-b.AggregateRate()) > 1e-9 {
		t.Errorf("aggregate differs by policy: %v vs %v", a.AggregateRate(), b.AggregateRate())
	}
}

func TestProfileMergeAcrossWorkers(t *testing.T) {
	// Deterministic regardless of GOMAXPROCS chunking: profile twice and
	// compare all headline numbers.
	m := channel.NewNaive("n", channel.EqualMix(0.06))
	ds := simulate(m, 200, 110, 5, 10)
	a, _ := Profile(ds, Options{})
	b, _ := Profile(ds, Options{})
	if a.SubCount != b.SubCount || a.InsCount != b.InsCount || a.DelCount != b.DelCount {
		t.Error("profiling is not deterministic")
	}
	if a.Summary() != b.Summary() {
		t.Error("summaries differ")
	}
	if !strings.Contains(a.Summary(), "aggregate") {
		t.Errorf("summary = %q", a.Summary())
	}
}

func TestProfileRandomizedSameAtAnyGOMAXPROCS(t *testing.T) {
	// Randomized tie-breaks draw from a generator per cluster, so the
	// profile must not depend on how many workers split the clusters.
	m := channel.NewNaive("n", channel.EqualMix(0.08))
	ds := simulate(m, 60, 110, 5, 11)
	prof := func(procs int) *ErrorProfile {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p, err := Profile(ds, Options{RandomizeScripts: true, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	one, four := prof(1), prof(4)
	if !reflect.DeepEqual(one, four) {
		t.Errorf("randomized profile differs between GOMAXPROCS 1 and 4:\n1: %s\n4: %s", one.Summary(), four.Summary())
	}
}

func TestCalibrationRoundTrip(t *testing.T) {
	// Fit the four tiers against the wetlab ground truth and verify each
	// tier's headline statistics match the profile it came from.
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters = 400
	cfg.Seed = 11
	ds := wetlab.MustGenerate(cfg)
	p, err := Profile(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}

	naive := p.NaiveModel("naive")
	if math.Abs(naive.AggregateRate()-p.Rates().Total()) > 1e-9 {
		t.Errorf("naive aggregate %v != profile %v", naive.AggregateRate(), p.Rates().Total())
	}

	cond := p.ConditionalModel("cond")
	if cond.LongDel.Prob <= 0 {
		t.Error("conditional model lost long deletions")
	}
	sk := p.SkewedModel("skew")
	if sk.Spatial == nil {
		t.Error("skewed model has no spatial distribution")
	}
	so := p.SecondOrderModel("so", 10)
	if len(so.SecondOrder) != 10 {
		t.Errorf("second-order model has %d specific errors", len(so.SecondOrder))
	}
	// Aggregate is preserved across the second-order carve-out.
	if math.Abs(so.AggregateRate()-sk.AggregateRate()) > 1e-6 {
		t.Errorf("second-order aggregate %v != skew aggregate %v", so.AggregateRate(), sk.AggregateRate())
	}

	tiers := p.Tiers(10)
	if len(tiers) != 4 {
		t.Fatalf("got %d tiers", len(tiers))
	}
	for _, tier := range tiers {
		if tier.Name() == "" {
			t.Error("tier without label")
		}
	}

	base := p.DNASimulatorBaseline("dnasim")
	if math.Abs(base.AggregateRate()-p.AggregateRate()) > 0.02 {
		t.Errorf("DNASimulator baseline aggregate %v far from profile %v", base.AggregateRate(), p.AggregateRate())
	}
}

func TestCalibratedSimulatorReproducesProfile(t *testing.T) {
	// The full loop: simulate with a calibrated model, re-profile, compare.
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters = 400
	cfg.Seed = 12
	real := wetlab.MustGenerate(cfg)
	p1, err := Profile(real, Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := p1.SecondOrderModel("fit", 10)
	sim := channel.Simulator{Channel: model, Coverage: channel.CustomCoverage(real.Coverages())}
	synth := sim.Simulate("synth", real.References(), 99)
	p2, err := Profile(synth, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.AggregateRate()-p2.AggregateRate())/p1.AggregateRate() > 0.10 {
		t.Errorf("re-profiled aggregate %v vs original %v", p2.AggregateRate(), p1.AggregateRate())
	}
	// Spatial shape should correlate: compare first/last position boosts.
	h1, h2 := p1.SpatialHistogram(), p2.SpatialHistogram()
	ratio := func(h []float64) float64 {
		interior := 0.0
		for i := 20; i < 90; i++ {
			interior += h[i]
		}
		interior /= 70
		return h[109] / interior
	}
	r1, r2 := ratio(h1), ratio(h2)
	if math.Abs(r1-r2)/r1 > 0.35 {
		t.Errorf("end-boost ratio mismatch: real %v, synthetic %v", r1, r2)
	}
}
