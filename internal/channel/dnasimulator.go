package channel

import (
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// BaseErrorRates is one row of the DNASimulator error dictionary E: the
// per-base probabilities of substitution, insertion, deletion and
// long-deletion used by Algorithm 1.
type BaseErrorRates struct {
	Sub, Ins, Del, LongDel float64
}

// Total returns the combined per-position probability.
func (b BaseErrorRates) Total() float64 { return b.Sub + b.Ins + b.Del + b.LongDel }

// DNASimulator reimplements the baseline simulator of Gadihh et al. [7]
// exactly as the paper's Algorithm 1 describes it: a static per-base error
// dictionary, position-independent errors, uniformly random substituted and
// inserted bases, and no modelling of PCR, coverage skew or spatial
// distribution. It exists to reproduce the comparison rows of Tables 2.1,
// 2.2, 3.1 and 3.2 — including its documented weaknesses.
type DNASimulator struct {
	// Label names the channel in tables; defaults to "DNASimulator".
	Label string
	// Errors is the per-base dictionary E, predetermined per
	// synthesis/sequencing technology pair.
	Errors [dna.NumBases]BaseErrorRates
	// LongDelLen is the burst length used for long deletions (>= 2).
	LongDelLen int
}

// NewDNASimulator builds a DNASimulator whose four dictionary rows share
// the given rates — the common published configuration.
func NewDNASimulator(label string, r BaseErrorRates) *DNASimulator {
	s := &DNASimulator{Label: label, LongDelLen: 2}
	for b := range s.Errors {
		s.Errors[b] = r
	}
	return s
}

// DefaultNanoporeDict returns the hard-coded dictionary shape DNASimulator
// ships for (Twist Bioscience, Nanopore) experiments: an aggregate error
// rate around 5.9% dominated by deletions and substitutions.
func DefaultNanoporeDict() BaseErrorRates {
	return BaseErrorRates{Sub: 0.022, Ins: 0.011, Del: 0.023, LongDel: 0.003}
}

// Name implements Channel.
func (s *DNASimulator) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "DNASimulator"
}

// AppendTransmit implements Channel, following Algorithm 1: for every
// base, draw one uniform variate and compare it against the cumulative
// thresholds sub, sub+ins, sub+ins+del, sub+ins+del+longdel. Substituted
// and inserted bases are uniform over all four bases — including, for
// substitutions, the original base, one of the modelling deficiencies
// §2.2.3 documents.
//
// The cumulative thresholds are hoisted out of the position loop and
// converted to integer draw-grid form (the same exact equivalence plan.go
// documents: u < t ⟺ bits < ceil(t*2^53)), so output is byte-identical
// to the inline float sums Algorithm 1 computed; draws come straight out
// of the arena's batched RNG block and the generator is backstepped to
// the exact per-draw stream position afterwards.
func (s *DNASimulator) AppendTransmit(dst []byte, ref []dna.Base, r *rng.RNG, scr *Scratch) []byte {
	if len(ref) == 0 {
		return dst
	}
	burst := s.LongDelLen
	if burst < 2 {
		burst = 2
	}
	var thr [dna.NumBases][4]uint64
	for b, e := range s.Errors {
		thr[b] = [4]uint64{
			thrBits(e.Sub),
			thrBits(e.Sub + e.Ins),
			thrBits(e.Sub + e.Ins + e.Del),
			thrBits(e.Sub + e.Ins + e.Del + e.LongDel),
		}
	}
	if need := len(dst) + len(ref) + 4; cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	d := &scr.batch
	d.Bind(r, len(ref)+8)
	blk := d.NextBlock()
	j := 0
	for i := 0; i < len(ref); {
		if j == len(blk) {
			d.Skip(j)
			blk = d.NextBlock()
			j = 0
		}
		b := ref[i]
		t := &thr[b]
		bits := blk[j] >> 11
		j++
		switch {
		case bits >= t[3]:
			dst = append(dst, b.Byte())
			i++
		case bits < t[0]:
			// Commit local consumption before the Intn draw.
			d.Skip(j)
			dst = append(dst, dna.Base(d.Intn(dna.NumBases)).Byte())
			blk, j = d.NextBlock(), 0
			i++
		case bits < t[1]:
			d.Skip(j)
			dst = append(dst, b.Byte(), dna.Base(d.Intn(dna.NumBases)).Byte())
			blk, j = d.NextBlock(), 0
			i++
		case bits < t[2]:
			i++
		default:
			i += burst
		}
	}
	d.Skip(j)
	d.Unbind()
	return dst
}

// AggregateRate returns the mean dictionary total across bases.
func (s *DNASimulator) AggregateRate() float64 {
	sum := 0.0
	for _, e := range s.Errors {
		sum += e.Total()
	}
	return sum / dna.NumBases
}
