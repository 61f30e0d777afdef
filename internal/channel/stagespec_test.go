package channel

import (
	"slices"
	"strings"
	"testing"

	"dnastore/internal/rng"
)

func TestParseStagesRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"synthesis=0.0118",
		"pcr=30:0.0001",
		"pcr=30:0.0001:0.02",
		"aging=100:3e-05",
		"aging=100:3e-05:0.00133",
		"sequencing=0.0413",
		"sequencing=0.0413:terminal-skew",
		"naive=0.02:0.01:0.03",
		"synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew",
	} {
		list, err := ParseStages(spec)
		if err != nil {
			t.Fatalf("ParseStages(%q): %v", spec, err)
		}
		if got := list.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
		list2, err := ParseStages(list.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", list.String(), err)
		}
		if len(list2) != len(list) {
			t.Errorf("%q: re-parse changed stage count", spec)
		}
	}
}

func TestParseStagesRejects(t *testing.T) {
	for _, spec := range []string{
		"synthesis",                // not key=value
		"warp=0.1",                 // unknown stage
		"synthesis=NaN",            // NaN rate
		"synthesis=-0.1",           // negative
		"synthesis=1.5",            // > 1
		"pcr=30",                   // missing sub rate
		"pcr=x:0.1",                // bad cycles
		"pcr=-3:0.1",               // negative cycles
		"pcr=30:0.1:0.2:0.3",       // too many fields
		"aging=100",                // missing rate
		"aging=-1:0.1",             // negative years
		"sequencing=0.04:sideways", // unknown spatial
		"naive=0.1:0.1",            // missing del
	} {
		if _, err := ParseStages(spec); err == nil {
			t.Errorf("ParseStages(%q) accepted", spec)
		}
	}
}

func TestStageListBuild(t *testing.T) {
	list, err := ParseStages("synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew")
	if err != nil {
		t.Fatal(err)
	}
	pipe := list.Build("dsl")
	if pipe.Name() != "dsl" {
		t.Errorf("pipeline name = %q", pipe.Name())
	}
	if len(pipe.Stages) != 4 {
		t.Fatalf("built %d stages", len(pipe.Stages))
	}
	if _, ok := pipe.Stages[1].(*PCRAmplification); !ok {
		t.Errorf("pcr with EFFSD built %T, want *PCRAmplification", pipe.Stages[1])
	}
	if _, ok := pipe.Stages[2].(*AgingStage); !ok {
		t.Errorf("aging with BREAK built %T, want *AgingStage", pipe.Stages[2])
	}
	cov := pipe.BindCoverage(FixedCoverage(10))
	if !strings.Contains(cov.Name(), "+pool(") {
		t.Errorf("pool stages not bound: %q", cov.Name())
	}

	// Strand-only variants of the same stages must not wrap coverage.
	strandOnly, err := ParseStages("pcr=30:0.0001,aging=100:3e-05")
	if err != nil {
		t.Fatal(err)
	}
	if cov := strandOnly.Build("s").BindCoverage(FixedCoverage(10)); cov.Name() != FixedCoverage(10).Name() {
		t.Errorf("strand-only DSL pipeline wrapped coverage: %q", cov.Name())
	}

	// The built pipeline transmits.
	ref := RandomReferences(1, 110, 3)[0]
	if err := Transmit(pipe, ref, rng.New(5)).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStageListBuildMatchesPhysicalPipeline: the DSL rendering of the
// physical pipeline builds a channel with identical output to the
// constructor, so specs and code name the same channel.
func TestStageListBuildMatchesPhysicalPipeline(t *testing.T) {
	want := NewPhysicalPipeline("p", 0.059, 100)
	// Constructor rates, spelled in the DSL.
	list, err := ParseStages("synthesis=0.0118,pcr=30:9.833333333333334e-05:0.02,aging=100:2.9500000000000004e-05:0.00133,sequencing=0.0413:terminal-skew")
	if err != nil {
		t.Fatal(err)
	}
	got := list.Build("p")
	ref := RandomReferences(1, 110, 7)[0]
	r1, r2 := rng.New(9), rng.New(9)
	a, b := Transmit(want, ref, r1), Transmit(got, ref, r2)
	if a != b {
		t.Errorf("DSL pipeline output differs from constructor:\n%q\n%q", a, b)
	}
	c1 := want.BindCoverage(FixedCoverage(50)).Sample(3, rng.New(11))
	c2 := got.BindCoverage(FixedCoverage(50)).Sample(3, rng.New(11))
	if c1 != c2 {
		t.Errorf("DSL pool coverage %d differs from constructor %d", c2, c1)
	}
}

// TestParseFaultsCanonical: a faults field parses to one directive per
// kind in Bind's order, whatever the listed order; a repeat keeps its last
// value (a bare truncate=P keeps an earlier MIN); a directive that injects
// nothing is dropped; and the canonical form round-trips.
func TestParseFaultsCanonical(t *testing.T) {
	for spec, want := range map[string]string{
		"":   "",
		"  ": "",
		"dropout=0.1,truncate=0.3:0.5,contam=0.02,zerocov=10:5": "contam=0.02,truncate=0.3:0.5,dropout=0.1,zerocov=10:5",
		"zerocov=10:5,contam=0.02,dropout=0.1,truncate=0.3:0.5": "contam=0.02,truncate=0.3:0.5,dropout=0.1,zerocov=10:5",
		"truncate=0.4":                      "truncate=0.4",
		"dropout=0.1,dropout=0.2":           "dropout=0.2",
		"dropout=0.1,dropout=0":             "",
		"truncate=0:0.5":                    "",
		"truncate=0.3:0.5,truncate=0.4":     "truncate=0.4:0.5",
		"truncate=0.3:0.5,truncate=0.4:0.6": "truncate=0.4:0.6",
		"zerocov=1:9223372036854775807":     "zerocov=1:9223372036854775807",
		"contam=0x1p-3,truncate=1e-300:0.5": "contam=0.125,truncate=1e-300:0.5",
	} {
		list, err := ParseFaults(spec)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", spec, err)
		}
		if got := list.String(); got != want {
			t.Errorf("ParseFaults(%q) = %q, want %q", spec, got, want)
		}
		again, err := ParseFaults(list.String())
		if err != nil || again.String() != want {
			t.Errorf("round trip %q -> %q (%v)", want, again.String(), err)
		}
	}
	list, err := ParseFaults("truncate=0.3:0.5,zerocov=10:5")
	if err != nil {
		t.Fatal(err)
	}
	want := StageList{{Kind: "truncate", Rate: 0.3, MinFrac: 0.5}, {Kind: "zerocov", Start: 10, Len: 5}}
	if !slices.Equal(list, want) {
		t.Errorf("ParseFaults = %+v, want %+v", list, want)
	}
}

// TestReadTruncationNameRendersMinFrac: the truncate directive's channel
// name carries the effective minimum fraction, so a bare truncate=P names
// the default 0.2 and two different minimums get different names.
func TestReadTruncationNameRendersMinFrac(t *testing.T) {
	name := func(spec string) string {
		list, err := ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		ch, _ := list.Bind(NewNaive("n", Rates{Sub: 0.01}), FixedCoverage(4))
		return ch.Name()
	}
	if a, b := name("truncate=0.3"), name("truncate=0.3:0.2"); a != b {
		t.Errorf("truncate=0.3 named %q, truncate=0.3:0.2 named %q; the default minimum is 0.2", a, b)
	}
	if a, b := name("truncate=0.3:0.4"), name("truncate=0.3:0.9"); a == b {
		t.Errorf("truncate=0.3:0.4 and truncate=0.3:0.9 share the name %q", a)
	}
	if got, want := name("truncate=0.3:0.4"), "n+truncate(0.300:0.400)"; got != want {
		t.Errorf("name = %q, want %q", got, want)
	}
}

// FuzzParseStages hardens the stages field of the channel grammar.
// Arbitrary strings must either parse into a list that round-trips
// through String() and builds, or error cleanly with the zero value;
// never panic, and never accept an out-of-range probability. The faults
// field is faults.FuzzParseSpec's; the dropout seed checks that a fault
// directive stays an error here.
func FuzzParseStages(f *testing.F) {
	f.Add("synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:3e-05:0.00133,sequencing=0.0413:terminal-skew")
	f.Add("naive=0.02:0.01:0.03")
	f.Add("pcr=30:0.0001")
	f.Add("")
	f.Add("dropout=0.1")
	f.Fuzz(func(t *testing.T, s string) {
		list, err := ParseStages(s)
		if err != nil {
			if list != nil {
				t.Errorf("%q errored but returned %+v", s, list)
			}
			return
		}
		for _, sp := range list {
			if slices.Contains(faultKinds, sp.Kind) {
				t.Errorf("%q accepted fault directive %s", s, sp.Kind)
			}
			for _, p := range []float64{sp.Rate, sp.SubRate, sp.EffSD, sp.RatePerYear, sp.Breakage, sp.Sub, sp.Ins, sp.Del} {
				if !(p >= 0 && p <= 1) {
					t.Errorf("%q accepted %s probability %v", s, sp.Kind, p)
				}
			}
		}
		// String() must render a list that parses back to the same
		// value — the CLIs echo specs and checkpoints record them.
		again, err := ParseStages(list.String())
		if err != nil {
			t.Fatalf("String() output %q does not re-parse: %v", list.String(), err)
		}
		if !slices.Equal(again, list) {
			t.Fatalf("round trip mismatch: %q -> %+v -> %q -> %+v", s, list, list.String(), again)
		}
		ch, cov := list.Bind(list.Build("fuzz"), FixedCoverage(2))
		ref := RandomReferences(1, 40, 1)[0]
		if err := Transmit(ch, ref, rng.New(1)).Validate(); err != nil {
			t.Fatalf("built channel emits invalid reads: %v", err)
		}
		if n := cov.Sample(0, rng.New(1)); n < 0 {
			t.Fatalf("bound coverage sampled %d", n)
		}
	})
}
