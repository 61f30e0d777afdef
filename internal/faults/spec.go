package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dnastore/internal/channel"
)

// Spec is a parsed fault-injection specification, the CLI-facing form of
// the injectors in this package. The textual syntax is a comma-separated
// list of directives:
//
//	dropout=P            zero whole clusters with probability P
//	truncate=P[:MIN]     truncate reads with probability P to a prefix
//	                     fraction uniform in [MIN, 1) (MIN defaults to 0.2)
//	contam=P             replace reads with alien/chimeric sequence at P
//	zerocov=START:LEN    zero the cluster-index region [START, START+LEN)
//
// e.g. "dropout=0.1,truncate=0.3:0.5,contam=0.02".
type Spec struct {
	// Dropout is the channel.ErasureCoverage probability (0 disables).
	Dropout float64
	// TruncP and TruncMinFrac configure ReadTruncation (TruncP 0 disables).
	TruncP, TruncMinFrac float64
	// ContamP is the ContaminationSpike probability (0 disables).
	ContamP float64
	// ZeroStart and ZeroLen configure ZeroCoverageRegion (ZeroLen 0 disables).
	ZeroStart, ZeroLen int
}

// ParseSpec parses the textual fault specification; an empty string yields
// the zero Spec, which injects nothing.
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, nil
	}
	for _, item := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: directive %q is not key=value", item)
		}
		switch key {
		case "dropout":
			p, err := parseProb(key, val)
			if err != nil {
				return Spec{}, err
			}
			sp.Dropout = p
		case "truncate":
			pStr, minStr, hasMin := strings.Cut(val, ":")
			p, err := parseProb(key, pStr)
			if err != nil {
				return Spec{}, err
			}
			sp.TruncP = p
			if hasMin {
				m, err := strconv.ParseFloat(minStr, 64)
				if err != nil || math.IsNaN(m) || m <= 0 || m >= 1 {
					return Spec{}, fmt.Errorf("faults: truncate min fraction %q must be in (0,1)", minStr)
				}
				sp.TruncMinFrac = m
			}
		case "contam":
			p, err := parseProb(key, val)
			if err != nil {
				return Spec{}, err
			}
			sp.ContamP = p
		case "zerocov":
			startStr, lenStr, ok := strings.Cut(val, ":")
			if !ok {
				return Spec{}, fmt.Errorf("faults: zerocov needs START:LEN, got %q", val)
			}
			start, err1 := strconv.Atoi(startStr)
			length, err2 := strconv.Atoi(lenStr)
			if err1 != nil || err2 != nil || start < 0 || length <= 0 {
				return Spec{}, fmt.Errorf("faults: zerocov region %q invalid", val)
			}
			sp.ZeroStart, sp.ZeroLen = start, length
		default:
			return Spec{}, fmt.Errorf("faults: unknown directive %q", key)
		}
	}
	if sp.TruncP == 0 {
		// truncate=0 disables the injector; a min fraction riding along is
		// dead configuration, normalised away so specs round-trip.
		sp.TruncMinFrac = 0
	}
	return sp, nil
}

// parseProb parses a probability in [0,1]. NaN is rejected explicitly:
// every range comparison against NaN is false, so without the check it
// would slip through and poison every downstream rng.Bool draw.
func parseProb(key, val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
		return 0, fmt.Errorf("faults: %s probability %q must be in [0,1]", key, val)
	}
	return p, nil
}

// Empty reports whether the spec injects no faults.
func (sp Spec) Empty() bool {
	return sp.Dropout == 0 && sp.TruncP == 0 && sp.ContamP == 0 && sp.ZeroLen == 0
}

// Wrap layers the configured injectors over a channel and coverage model.
// Contamination is applied before truncation (a contaminated read can still
// be cut short); coverage faults apply dropout before the dead region.
func (sp Spec) Wrap(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel) {
	if sp.ContamP > 0 {
		ch = ContaminationSpike{Base: ch, P: sp.ContamP}
	}
	if sp.TruncP > 0 {
		ch = ReadTruncation{Base: ch, P: sp.TruncP, MinFrac: sp.TruncMinFrac}
	}
	if sp.Dropout > 0 {
		cov = channel.ErasureCoverage{Base: cov, P: sp.Dropout}
	}
	if sp.ZeroLen > 0 {
		cov = ZeroCoverageRegion{Base: cov, Start: sp.ZeroStart, Len: sp.ZeroLen}
	}
	return ch, cov
}

// String renders the spec back in its textual syntax.
func (sp Spec) String() string {
	var parts []string
	if sp.Dropout > 0 {
		parts = append(parts, fmt.Sprintf("dropout=%g", sp.Dropout))
	}
	if sp.TruncP > 0 {
		if sp.TruncMinFrac > 0 {
			parts = append(parts, fmt.Sprintf("truncate=%g:%g", sp.TruncP, sp.TruncMinFrac))
		} else {
			parts = append(parts, fmt.Sprintf("truncate=%g", sp.TruncP))
		}
	}
	if sp.ContamP > 0 {
		parts = append(parts, fmt.Sprintf("contam=%g", sp.ContamP))
	}
	if sp.ZeroLen > 0 {
		parts = append(parts, fmt.Sprintf("zerocov=%d:%d", sp.ZeroStart, sp.ZeroLen))
	}
	return strings.Join(parts, ",")
}
