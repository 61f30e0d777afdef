package channel

import (
	"dnastore/internal/align"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// The reference transmitter and its samplers: the channel's executable
// specification, kept beside the tests that hold the compiled plan to it
// (plan_test.go, fastpath_test.go, pipeline_test.go).

// transmitReference is the original, uncompiled implementation of
// Transmit, retained verbatim as the executable specification of the
// channel's sampling semantics. The differential tests in plan_test.go
// assert Transmit matches it byte-for-byte on the same RNG stream; it is
// not used on any production path.
func (m *Model) transmitReference(ref dna.Strand, r *rng.RNG) dna.Strand {
	length := ref.Len()
	if length == 0 {
		return ref
	}
	mult := m.multipliers(length)
	soMult := m.secondOrderMults(length)
	out := make([]byte, 0, length+4)
	for i := 0; i < length; {
		b := ref.At(i)
		posMult := 1.0
		if mult != nil {
			posMult = mult[i]
		}
		rates := m.PerBase[b].Scale(posMult)
		longDel := m.LongDel.Prob * posMult

		// Second-order mass first.
		soTotal := 0.0
		for k, e := range m.SecondOrder {
			if !e.applies(b) {
				continue
			}
			w := 1.0
			if soMult != nil && soMult[k] != nil {
				w = soMult[k][i]
			}
			soTotal += e.Rate * w
		}
		total := soTotal + rates.Total() + longDel
		scale := 1.0
		if total > maxPositionRate {
			scale = maxPositionRate / total
		}

		u := r.Float64()
		acc := 0.0
		matched := false
		for k, e := range m.SecondOrder {
			if !e.applies(b) {
				continue
			}
			w := 1.0
			if soMult != nil && soMult[k] != nil {
				w = soMult[k][i]
			}
			acc += e.Rate * w * scale
			if u < acc {
				switch e.Kind {
				case align.Sub:
					out = append(out, e.To.Byte())
					i++
				case align.Del:
					i++
				case align.Ins:
					out = append(out, b.Byte(), e.To.Byte())
					i++
				}
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		switch {
		case u < acc+rates.Sub*scale:
			out = append(out, m.sampleSub(b, r).Byte())
			i++
		case u < acc+(rates.Sub+rates.Ins)*scale:
			out = append(out, b.Byte(), m.sampleIns(r).Byte())
			i++
		case u < acc+(rates.Sub+rates.Ins+rates.Del)*scale:
			i++
		case u < acc+(rates.Total()+longDel)*scale:
			i += m.LongDel.sampleLen(r)
		default:
			out = append(out, b.Byte())
			i++
		}
	}
	return dna.Strand(out)
}

// sampleSub draws the replacement base for a substitution of b using the
// confusion matrix; an all-zero row falls back to uniform over the other
// three bases.
func (m *Model) sampleSub(b dna.Base, r *rng.RNG) dna.Base {
	row := m.SubMatrix[b]
	total := 0.0
	for c, w := range row {
		if dna.Base(c) == b {
			continue
		}
		total += w
	}
	if total <= 0 {
		// Uniform over the three other bases.
		k := r.Intn(dna.NumBases - 1)
		c := dna.Base(k)
		if c >= b {
			c++
		}
		return c
	}
	u := r.Float64() * total
	for c := 0; c < dna.NumBases; c++ {
		if dna.Base(c) == b {
			continue
		}
		u -= row[c]
		if u < 0 {
			return dna.Base(c)
		}
	}
	return b.Complement() // numerically unreachable fallback
}

// sampleIns draws the inserted base; an all-zero InsDist is uniform.
func (m *Model) sampleIns(r *rng.RNG) dna.Base {
	total := 0.0
	for _, w := range m.InsDist {
		total += w
	}
	if total <= 0 {
		return dna.Base(r.Intn(dna.NumBases))
	}
	u := r.Float64() * total
	for c, w := range m.InsDist {
		u -= w
		if u < 0 {
			return dna.Base(c)
		}
	}
	return dna.Base(dna.NumBases - 1)
}

// sampleLen draws a burst length; it returns MinLen when no weights are set.
func (l LongDeletion) sampleLen(r *rng.RNG) int {
	if len(l.LengthWeights) == 0 {
		return l.minLen()
	}
	total := 0.0
	for _, w := range l.LengthWeights {
		total += w
	}
	if total <= 0 {
		return l.minLen()
	}
	u := r.Float64() * total
	for k, w := range l.LengthWeights {
		u -= w
		if u < 0 {
			return l.minLen() + k
		}
	}
	return l.minLen() + len(l.LengthWeights) - 1
}
