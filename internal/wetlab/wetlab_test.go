package wetlab

import (
	"math"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dist"
	"dnastore/internal/profile"
	"dnastore/internal/rng"
)

func TestDefaultConfigMatchesPaperShape(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumClusters != 10000 || cfg.StrandLen != 110 {
		t.Errorf("config = %+v", cfg)
	}
	if math.Abs(cfg.MeanCoverage-26.97) > 1e-9 {
		t.Errorf("mean coverage = %v", cfg.MeanCoverage)
	}
	if math.Abs(cfg.ErrorRate-0.059) > 1e-9 {
		t.Errorf("error rate = %v", cfg.ErrorRate)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{NumClusters: 0, StrandLen: 1, Dispersion: 1},
		{NumClusters: 1, StrandLen: 0, Dispersion: 1},
		{NumClusters: 1, StrandLen: 1, Dispersion: 0},
		{NumClusters: 1, StrandLen: 1, Dispersion: 1, MeanCoverage: -1},
		{NumClusters: 1, StrandLen: 1, Dispersion: 1, ErrorRate: 1},
		{NumClusters: 1, StrandLen: 1, Dispersion: 1, ErasureP: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestGroundTruthAggregateRate(t *testing.T) {
	m := GroundTruthChannel(0.059)
	// Aggregate ≈ 0.059 plus the long-deletion extra-base mass.
	agg := m.AggregateRate()
	if agg < 0.055 || agg > 0.068 {
		t.Errorf("ground truth aggregate = %v", agg)
	}
	// Empirical check via edit distance.
	refs := channel.RandomReferences(300, 110, 3)
	r := rng.New(4)
	totalDist, totalBases := 0, 0
	for _, ref := range refs {
		read := channel.Transmit(m, ref, r)
		totalDist += align.Distance(string(ref), string(read))
		totalBases += ref.Len()
	}
	rate := float64(totalDist) / float64(totalBases)
	// Long deletions add extra deleted bases beyond the start probability.
	if rate < 0.050 || rate > 0.075 {
		t.Errorf("empirical ground-truth error rate = %v, want ≈0.059", rate)
	}
}

func TestGroundTruthTerminalSkew(t *testing.T) {
	m := GroundTruthChannel(0.059)
	r := rng.New(5)
	ref := channel.RandomReferences(1, 110, 6)[0]
	counts := make([]int, 111)
	const n = 30000
	for i := 0; i < n; i++ {
		read := channel.Transmit(m, ref, r)
		for _, p := range align.GestaltErrorPositions(string(ref), string(read)) {
			if p > 110 {
				p = 110 // reads longer than the reference spill into the last bin
			}
			counts[p]++
		}
	}
	// Interior baseline over the flat middle region.
	interior := 0.0
	for p := 20; p < 90; p++ {
		interior += float64(counts[p])
	}
	interior /= 70
	// Excess error mass above the interior baseline at each terminal. The
	// end boost is smeared over the last ~10 read positions because reads
	// are deletion-shortened, so compare window excesses, not single bins.
	startMass, endMass := 0.0, 0.0
	for p := 0; p < 3; p++ {
		startMass += float64(counts[p]) - interior
	}
	for p := 98; p <= 110; p++ {
		endMass += float64(counts[p]) - interior
	}
	if startMass < 2*interior {
		t.Errorf("strand start not error-skewed: excess %v vs interior %v", startMass, interior)
	}
	ratio := endMass / startMass
	if ratio < 1.2 || ratio > 3.5 {
		t.Errorf("end/start excess ratio = %v, want ≈2 (paper Fig 3.2b)", ratio)
	}
}

func TestGenerateSmallDataset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClusters = 300
	cfg.Seed = 7
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := ds.ComputeStats()
	if stats.NumClusters != 300 {
		t.Errorf("clusters = %d", stats.NumClusters)
	}
	if stats.RefLength != 110 {
		t.Errorf("ref length = %d", stats.RefLength)
	}
	if math.Abs(stats.MeanCoverage-26.97) > 2.5 {
		t.Errorf("mean coverage = %v, want ≈27", stats.MeanCoverage)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClusters = 50
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	for i := range a.Clusters {
		if len(a.Clusters[i].Reads) != len(b.Clusters[i].Reads) {
			t.Fatal("coverage differs between identical configs")
		}
		for j := range a.Clusters[i].Reads {
			if a.Clusters[i].Reads[j] != b.Clusters[i].Reads[j] {
				t.Fatal("reads differ between identical configs")
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate did not panic")
		}
	}()
	MustGenerate(Config{})
}

func TestTechnologiesTable11(t *testing.T) {
	techs := Technologies()
	if len(techs) != 3 {
		t.Fatalf("got %d technologies", len(techs))
	}
	for i, tech := range techs {
		if tech.Generation != i+1 {
			t.Errorf("generation order broken at %d", i)
		}
	}
	byName := map[string]Technology{}
	for _, tech := range techs {
		byName[tech.Name] = tech
	}
	nano, ill := byName["Nanopore"], byName["Illumina"]
	if !nano.BurstErrors {
		t.Error("Nanopore should have burst errors")
	}
	midpoint := func(tech Technology) float64 { return (tech.ErrorRate[0] + tech.ErrorRate[1]) / 2 }
	if midpoint(nano) != 0.10 {
		t.Errorf("Nanopore error rate = %v", midpoint(nano))
	}
	if midpoint(ill) >= midpoint(nano) {
		t.Error("Illumina should be cleaner than Nanopore")
	}
}

func TestIlluminaCalibrationTransfers(t *testing.T) {
	// The same profiling machinery must fit a second-generation shape run
	// through the generator's own coverage and erasure model: 0.5%
	// aggregate, substitution-dominant and transition-biased, with a mild
	// quality ramp at both read ends and a tighter coverage spread.
	cfg := Config{NumClusters: 200, StrandLen: 110, MeanCoverage: 30, Dispersion: 8,
		ErrorRate: 0.005, ErasureP: 0.0005, Seed: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := channel.NewNaive("illumina",
		channel.Rates{Sub: 0.8 * cfg.ErrorRate, Ins: 0.08 * cfg.ErrorRate, Del: 0.12 * cfg.ErrorRate})
	m.SubMatrix = channel.TransitionBiasedSubMatrix(0.6)
	ch := m.WithSpatial(dist.TerminalSkew{StartPositions: 3, EndPositions: 8, StartBoost: 2, EndBoost: 3})
	refs := channel.RandomReferences(cfg.NumClusters, cfg.StrandLen, cfg.Seed)
	ds := cfg.simulator(ch).Simulate("Illumina", refs, cfg.Seed+0x11)
	p, err := profile.Profile(ds, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rates()
	if r.Sub < r.Del+r.Ins {
		t.Errorf("fitted Illumina profile not substitution-dominant: %+v", r)
	}
	if math.Abs(p.AggregateRate()-0.005) > 0.0015 {
		t.Errorf("fitted aggregate = %v, want ≈0.005", p.AggregateRate())
	}
}
