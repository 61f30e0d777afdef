package channel

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"dnastore/internal/dist"
)

// The channel grammar: the CLI- and spec-facing form of the channel, a
// comma-separated list of key=value directives with colon-separated
// sub-fields. One parser reads it into one StageList; Build turns the
// stage directives into a Pipeline, and Bind turns a channel and coverage
// model plus the fault directives into the pair a Simulator runs. The
// textual form travels verbatim inside SimulateSpec, so two jobs with the
// same strings produce the same fingerprint and share shard caches across
// dnasimd and the fleet.
//
// Stage directives make up the stages field and apply in listed order:
//
//	synthesis=RATE                deletion-dominant, 3'-skewed (NewSynthesisStage)
//	pcr=CYCLES:SUBRATE[:EFFSD]    per-cycle substitutions; with EFFSD also
//	                              lognormal amplification skew on the pool
//	                              (NewPCRAmplification), else strand-only
//	aging=YEARS:RATE[:BREAK]      hydrolytic decay; with BREAK also strand
//	                              breakage thinning the pool (NewAgingStage),
//	                              else strand-only (NewDecayStage)
//	sequencing=RATE[:SPATIAL]     Nanopore-mix read-out with burst deletions;
//	                              SPATIAL is a dist.ByName name
//	                              (uniform | a-shape | v-shape | terminal-skew)
//	naive=SUB:INS:DEL             uniform per-base rates (NewNaive)
//
// Fault directives make up the faults field. Wherever they are listed they
// apply in this fixed order, and a repeated directive keeps its last value:
//
//	contam=P             replace reads with alien or chimeric sequence at P
//	truncate=P[:MIN]     cut reads at P to a prefix fraction uniform in
//	                     [MIN, 1) (MIN defaults to 0.2)
//	dropout=P            erase whole clusters at P
//	zerocov=START:LEN    erase the clusters with index in [START, START+LEN)
//
// e.g. stages "synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:0.00003:0.00133,sequencing=0.0413:terminal-skew"
// and faults "dropout=0.1,truncate=0.3:0.5,contam=0.02".

// faultKinds are the fault directives in the order Bind applies them.
var faultKinds = []string{"contam", "truncate", "dropout", "zerocov"}

// StageSpec is one parsed directive.
type StageSpec struct {
	// Kind is the directive key.
	Kind string
	// Rate is the aggregate rate for synthesis and sequencing, and the
	// probability for contam, truncate and dropout.
	Rate float64
	// Cycles and SubRate configure pcr; EffSD enables the pool skew when
	// HasPool is set.
	Cycles  int
	SubRate float64
	EffSD   float64
	// Years, RatePerYear and Breakage configure aging; Breakage thins the
	// pool when HasPool is set.
	Years, RatePerYear, Breakage float64
	// HasPool records whether the optional pool field was present, so the
	// spec round-trips exactly (pcr=30:0.001 ≠ pcr=30:0.001:0).
	HasPool bool
	// Spatial is the sequencing spatial name; empty means none.
	Spatial string
	// Sub, Ins, Del are the naive per-base rates.
	Sub, Ins, Del float64
	// MinFrac is truncate's shortest surviving prefix fraction; zero means
	// the default.
	MinFrac float64
	// Start and Len delimit zerocov's erased cluster-index region.
	Start, Len int
}

// StageList is a parsed, validated list of directives.
type StageList []StageSpec

// ParseStages parses a stages field: stage directives, in listed order.
// An empty string yields an empty list, which builds the identity
// pipeline.
func ParseStages(s string) (StageList, error) {
	return parseDirectives("stages", s)
}

// ParseFaults parses a faults field into its canonical form: at most one
// directive of each kind, in Bind's order, each holding the last value
// listed, and none that injects nothing (a zero probability). An empty
// string yields an empty list.
func ParseFaults(s string) (StageList, error) {
	list, err := parseDirectives("faults", s)
	if err != nil {
		return nil, err
	}
	var canon StageList
	for _, kind := range faultKinds {
		var merged StageSpec
		for _, sp := range list {
			if sp.Kind != kind {
				continue
			}
			if sp.MinFrac == 0 {
				sp.MinFrac = merged.MinFrac // truncate=P keeps an earlier MIN
			}
			merged = sp
		}
		// truncate=0:MIN is dropped whole, so its MIN normalises away.
		if merged.Rate > 0 || merged.Len > 0 {
			canon = append(canon, merged)
		}
	}
	return canon, nil
}

// parseDirectives is the one parser. field names the input, stages or
// faults; each takes only its own family of directives.
func parseDirectives(field, s string) (StageList, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var list StageList
	for _, item := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return nil, fmt.Errorf("%s: directive %q is not key=value", field, item)
		}
		if slices.Contains(faultKinds, key) != (field == "faults") {
			return nil, fmt.Errorf("%s: unknown directive %q", field, key)
		}
		sp, err := parseDirective(key, val)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", field, err)
		}
		list = append(list, sp)
	}
	return list, nil
}

// parseDirective parses one directive's value.
func parseDirective(key, val string) (StageSpec, error) {
	sp := StageSpec{Kind: key}
	var err error
	switch key {
	case "synthesis", "contam", "dropout":
		sp.Rate, err = parseRate(key, val)
	case "pcr":
		fields := strings.Split(val, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return sp, fmt.Errorf("pcr needs CYCLES:SUBRATE[:EFFSD], got %q", val)
		}
		if sp.Cycles, err = strconv.Atoi(fields[0]); err != nil || sp.Cycles < 0 {
			return sp, fmt.Errorf("pcr cycles %q must be a non-negative integer", fields[0])
		}
		if sp.SubRate, err = parseRate("pcr sub", fields[1]); err == nil && len(fields) == 3 {
			sp.EffSD, err = parseRate("pcr efficiency sd", fields[2])
			sp.HasPool = true
		}
	case "aging":
		fields := strings.Split(val, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return sp, fmt.Errorf("aging needs YEARS:RATE[:BREAK], got %q", val)
		}
		sp.Years, err = strconv.ParseFloat(fields[0], 64)
		if err != nil || math.IsNaN(sp.Years) || sp.Years < 0 {
			return sp, fmt.Errorf("aging years %q must be >= 0", fields[0])
		}
		if sp.RatePerYear, err = parseRate("aging", fields[1]); err == nil && len(fields) == 3 {
			sp.Breakage, err = parseRate("aging breakage", fields[2])
			sp.HasPool = true
		}
	case "sequencing":
		rateStr, spatial, hasSpatial := strings.Cut(val, ":")
		if sp.Rate, err = parseRate(key, rateStr); err == nil && hasSpatial {
			if _, err = dist.ByName(spatial); err != nil {
				return sp, fmt.Errorf("sequencing spatial: %v", err)
			}
			sp.Spatial = spatial
		}
	case "naive":
		fields := strings.Split(val, ":")
		if len(fields) != 3 {
			return sp, fmt.Errorf("naive needs SUB:INS:DEL, got %q", val)
		}
		rates := [3]float64{}
		for i, f := range fields {
			if rates[i], err = parseRate(key, f); err != nil {
				return sp, err
			}
		}
		sp.Sub, sp.Ins, sp.Del = rates[0], rates[1], rates[2]
	case "truncate":
		pStr, minStr, hasMin := strings.Cut(val, ":")
		if sp.Rate, err = parseRate(key, pStr); err == nil && hasMin {
			sp.MinFrac, err = strconv.ParseFloat(minStr, 64)
			if err != nil || math.IsNaN(sp.MinFrac) || sp.MinFrac <= 0 || sp.MinFrac >= 1 {
				return sp, fmt.Errorf("truncate min fraction %q must be in (0,1)", minStr)
			}
		}
	case "zerocov":
		startStr, lenStr, ok := strings.Cut(val, ":")
		if !ok {
			return sp, fmt.Errorf("zerocov needs START:LEN, got %q", val)
		}
		start, err1 := strconv.Atoi(startStr)
		length, err2 := strconv.Atoi(lenStr)
		if err1 != nil || err2 != nil || start < 0 || length <= 0 {
			return sp, fmt.Errorf("zerocov region %q invalid", val)
		}
		sp.Start, sp.Len = start, length
	default:
		return sp, fmt.Errorf("unknown directive %q", key)
	}
	return sp, err
}

// parseRate parses a probability-like rate in [0,1]. NaN is rejected
// explicitly — range comparisons against NaN are all false, and a NaN rate
// would poison every threshold and rng.Bool draw downstream.
func parseRate(key, val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(r) || r < 0 || r > 1 {
		return 0, fmt.Errorf("%s rate %q must be in [0,1]", key, val)
	}
	return r, nil
}

// Build assembles the pipeline of the list's stage directives, in order.
// Fault directives are Bind's and are skipped; a hand-built list with an
// unknown Kind panics.
func (l StageList) Build(label string) Pipeline {
	stages := make([]Stage, 0, len(l))
	for _, sp := range l {
		switch sp.Kind {
		case "synthesis":
			stages = append(stages, NewSynthesisStage(sp.Rate))
		case "pcr":
			if sp.HasPool {
				stages = append(stages, NewPCRAmplification(sp.Cycles, sp.SubRate, sp.EffSD))
			} else {
				stages = append(stages, NewPCRStage(sp.Cycles, sp.SubRate))
			}
		case "aging":
			if sp.HasPool {
				stages = append(stages, NewAgingStage(sp.Years, sp.RatePerYear, sp.Breakage))
			} else {
				stages = append(stages, NewDecayStage(sp.Years, sp.RatePerYear))
			}
		case "sequencing":
			var spatial dist.Spatial
			if sp.Spatial != "" {
				spatial, _ = dist.ByName(sp.Spatial) // validated at parse time
			}
			stages = append(stages, NewSequencingStage(NanoporeMix(sp.Rate), PaperLongDeletion(), spatial))
		case "naive":
			stages = append(stages, NewNaive("naive", Rates{Sub: sp.Sub, Ins: sp.Ins, Del: sp.Del}))
		case "contam", "truncate", "dropout", "zerocov":
		default:
			panic(fmt.Sprintf("stages: unknown stage kind %q", sp.Kind))
		}
	}
	return Pipeline{Label: label, Stages: stages}
}

// Bind is the one builder of the pair a Simulator runs: ch wrapped in the
// list's read effects, and cov with ch's pool stages (when ch is a
// Pipeline) and then the list's count effects bound over it by
// BindCoverage. Fault directives apply in list order, so a ParseFaults
// list puts contam inside truncate around ch, and dropout before zerocov
// ahead of the base draw. Stage directives are Build's and are skipped.
//
// cov must be the unbound base model: a cov already bound by ch's own
// BindCoverage would get ch's pool stages twice. Only a bare Pipeline's
// stages are bound; a channel that wraps a Pipeline (Chimera,
// HomopolymerModel) is not looked through, so bind that pipeline's count
// stages into cov first.
func (l StageList) Bind(ch Channel, cov CoverageModel) (Channel, CoverageModel) {
	var count []Stage
	if p, ok := ch.(Pipeline); ok {
		count = append(count, p.Stages...)
	}
	for _, sp := range l {
		switch sp.Kind {
		case "contam":
			ch = ContaminationSpike{Base: ch, P: sp.Rate}
		case "truncate":
			ch = ReadTruncation{Base: ch, P: sp.Rate, MinFrac: sp.MinFrac}
		case "dropout":
			count = append(count, Dropout{P: sp.Rate})
		case "zerocov":
			count = append(count, ZeroCoverage{Start: sp.Start, Len: sp.Len})
		}
	}
	return ch, Pipeline{Stages: count}.BindCoverage(cov)
}

// String renders the list back in its textual syntax; ParseStages and
// ParseFaults reproduce l exactly from it.
func (l StageList) String() string {
	parts := make([]string, 0, len(l))
	for _, sp := range l {
		switch sp.Kind {
		case "synthesis":
			parts = append(parts, fmt.Sprintf("synthesis=%g", sp.Rate))
		case "pcr":
			if sp.HasPool {
				parts = append(parts, fmt.Sprintf("pcr=%d:%g:%g", sp.Cycles, sp.SubRate, sp.EffSD))
			} else {
				parts = append(parts, fmt.Sprintf("pcr=%d:%g", sp.Cycles, sp.SubRate))
			}
		case "aging":
			if sp.HasPool {
				parts = append(parts, fmt.Sprintf("aging=%g:%g:%g", sp.Years, sp.RatePerYear, sp.Breakage))
			} else {
				parts = append(parts, fmt.Sprintf("aging=%g:%g", sp.Years, sp.RatePerYear))
			}
		case "sequencing":
			if sp.Spatial != "" {
				parts = append(parts, fmt.Sprintf("sequencing=%g:%s", sp.Rate, sp.Spatial))
			} else {
				parts = append(parts, fmt.Sprintf("sequencing=%g", sp.Rate))
			}
		case "naive":
			parts = append(parts, fmt.Sprintf("naive=%g:%g:%g", sp.Sub, sp.Ins, sp.Del))
		case "contam", "dropout":
			parts = append(parts, fmt.Sprintf("%s=%g", sp.Kind, sp.Rate))
		case "truncate":
			if sp.MinFrac > 0 {
				parts = append(parts, fmt.Sprintf("truncate=%g:%g", sp.Rate, sp.MinFrac))
			} else {
				parts = append(parts, fmt.Sprintf("truncate=%g", sp.Rate))
			}
		case "zerocov":
			parts = append(parts, fmt.Sprintf("zerocov=%d:%d", sp.Start, sp.Len))
		}
	}
	return strings.Join(parts, ",")
}
