// Package rng provides a deterministic random number generator and the
// distribution samplers used throughout the simulator.
//
// Everything stochastic in this repository draws from an *RNG seeded
// explicitly by the caller, so that every experiment, test and benchmark is
// reproducible bit-for-bit. The generator is xoshiro256**, seeded through
// SplitMix64 as recommended by its authors; both are tiny, fast and
// dependency-free.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random generator. It is not safe for
// concurrent use; give each goroutine its own, seeded with New (the
// simulator seeds each cluster's generator from the run seed and the
// cluster index).
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for Box–Muller
	hasSpare bool
	spare    float64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return Mix64(*state)
}

// Mix64 is SplitMix64's mixing step, the bijection it applies to its state
// after adding its increment 0x9e3779b97f4a7c15: a full-avalanche mix for
// deriving independent seeds and hash scores from structured inputs.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle permutes n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal deviate using Box–Muller with a
// cached spare.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Normal returns a normal deviate with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Poisson returns a Poisson-distributed integer with mean lambda.
// It panics if lambda is negative.
func (r *RNG) Poisson(lambda float64) int {
	switch {
	case lambda < 0:
		panic("rng: Poisson with negative lambda")
	case lambda == 0:
		return 0
	case lambda < 30:
		// Knuth's multiplication method.
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		// Normal approximation with continuity correction, adequate for the
		// coverage scales used here; rejected to non-negative.
		for {
			x := math.Round(r.Normal(lambda, math.Sqrt(lambda)))
			if x >= 0 {
				return int(x)
			}
		}
	}
}

// NegBinomial returns a negative-binomial deviate: the number of failures
// before the rth success with success probability p. For non-integral r it
// uses the Gamma–Poisson mixture. Heckel et al. observed sequencing coverage
// to be approximately negative-binomially distributed, which is why the
// wetlab substrate draws coverage from this sampler.
func (r *RNG) NegBinomial(successes, p float64) int {
	if successes <= 0 || p <= 0 || p > 1 {
		panic("rng: NegBinomial requires successes > 0 and 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	// Gamma(r, (1-p)/p) mixed Poisson.
	lambda := r.Gamma(successes, (1-p)/p)
	return r.Poisson(lambda)
}

// NegBinomialMeanDisp returns a negative-binomial deviate parameterised by
// mean mu and dispersion k (variance = mu + mu²/k). Smaller k means more
// overdispersion. This is the ecology-style parameterisation convenient for
// matching empirical coverage distributions.
func (r *RNG) NegBinomialMeanDisp(mu, k float64) int {
	if mu < 0 || k <= 0 {
		panic("rng: NegBinomialMeanDisp requires mu >= 0 and k > 0")
	}
	if mu == 0 {
		return 0
	}
	p := k / (k + mu)
	return r.NegBinomial(k, p)
}

// Gamma returns a Gamma(shape, scale) deviate using the Marsaglia–Tsang
// method. It panics unless shape > 0 and scale > 0.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires shape > 0 and scale > 0")
	}
	if shape < 1 {
		// Boost with the Johnk/Marsaglia trick: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Binomial returns the number of successes in n Bernoulli(p) trials.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n < 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	// Normal approximation clamped to [0, n]; fine at simulator scales.
	mu := float64(n) * p
	sd := math.Sqrt(mu * (1 - p))
	x := math.Round(r.Normal(mu, sd))
	if x < 0 {
		x = 0
	}
	if x > float64(n) {
		x = float64(n)
	}
	return int(x)
}
