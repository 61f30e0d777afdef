package codec

import (
	"fmt"

	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Primer design for PCR random access (§1.1.1, Yazdi et al. [25] and
// Bornholt et al. [4]): each stored object is keyed by a primer sequence
// prepended to its strands, and retrieval amplifies only strands carrying
// the chosen primer. Usable primers must be mutually distant (so PCR does
// not cross-amplify), GC-balanced and homopolymer-free (so they bind
// reliably).

// PrimerConfig constrains generated primers.
type PrimerConfig struct {
	// Length is the primer length in bases (default 20, the deployed
	// standard).
	Length int
}

// The standalone primer constraints: a GC ratio in [primerGCLow,
// primerGCHigh] and no homopolymer run longer than primerMaxHomopolymer.
// Two primers of one library are at least Length/3 edits apart.
const (
	primerGCLow          = 0.45
	primerGCHigh         = 0.55
	primerMaxHomopolymer = 2
)

func (c PrimerConfig) length() int {
	if c.Length <= 0 {
		return 20
	}
	return c.Length
}

// Valid reports whether a candidate satisfies the standalone constraints.
func (c PrimerConfig) Valid(p dna.Strand) bool {
	if p.Len() != c.length() {
		return false
	}
	gc := p.GCRatio()
	if gc < primerGCLow || gc > primerGCHigh {
		return false
	}
	return !p.HasHomopolymerOver(primerMaxHomopolymer)
}

// GeneratePrimers searches randomly for n mutually-distant valid primers.
// It fails if the search budget (attempts per primer) is exhausted —
// typically a sign the constraints are unsatisfiable at the given length.
func GeneratePrimers(n int, cfg PrimerConfig, r *rng.RNG) ([]dna.Strand, error) {
	if n <= 0 {
		return nil, fmt.Errorf("codec: primer count must be positive")
	}
	const attemptsPer = 20000
	lib := make([]dna.Strand, 0, n)
	buf := make([]byte, cfg.length())
	minDist := cfg.length() / 3
	var pat align.Pattern // the candidate, scanned against the library
	for len(lib) < n {
		found := false
		for attempt := 0; attempt < attemptsPer; attempt++ {
			for i := range buf {
				buf[i] = dna.Base(r.Intn(dna.NumBases)).Byte()
			}
			cand := dna.Strand(string(buf))
			if !cfg.Valid(cand) {
				continue
			}
			pat.Reset(string(cand))
			ok := true
			for _, p := range lib {
				if _, near := pat.DistanceAtMost(string(p), minDist-1); near {
					ok = false
					break
				}
			}
			if ok {
				lib = append(lib, cand)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("codec: primer search exhausted after %d primers", len(lib))
		}
	}
	return lib, nil
}

// Tag prepends a primer to every strand — the stored form of a keyed
// object.
func Tag(primer dna.Strand, strands []dna.Strand) []dna.Strand {
	out := make([]dna.Strand, len(strands))
	for i, s := range strands {
		out[i] = primer + s
	}
	return out
}

// SelectAmplify models PCR retrieval over a mixed pool: reads whose prefix
// is within maxMismatch edit distance of the primer are amplified
// (returned with the primer region stripped); everything else is left
// behind. Imperfect selectivity — the §1.1.1 caveat — appears when
// maxMismatch is generous enough to capture other objects' primers.
func SelectAmplify(pool []dna.Strand, primer dna.Strand, maxMismatch int) []dna.Strand {
	var out []dna.Strand
	plen := primer.Len()
	var pat align.Pattern
	pat.Reset(string(primer))
	for _, s := range pool {
		if s.Len() < plen {
			continue
		}
		if _, ok := pat.DistanceAtMost(string(s[:plen]), maxMismatch); ok {
			out = append(out, s[plen:])
		}
	}
	return out
}
