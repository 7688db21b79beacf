// Package xrand provides small, fast, deterministic pseudo-random number
// generators for the simulation models in this repository.
//
// The models must be reproducible bit-for-bit across runs and platforms, so
// nothing in this module uses the global math/rand source or wall-clock
// seeding. Every experiment takes an explicit seed and derives all of its
// randomness from an xrand.Source.
package xrand

import "math"

// Source is a deterministic 64-bit PRNG. The core generator is
// SplitMix64 (Steele, Lea, Flood 2014), which passes BigCrush, has a full
// 2^64 period, and needs only a single uint64 of state. That is plenty for
// driving synthetic traffic and bank-address patterns.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield independent
// streams for all practical purposes.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split returns a new Source whose stream is independent from s.
// It is used to hand child components their own generators so that adding a
// consumer of randomness in one block does not perturb another block.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32-bit value in the stream.
func (s *Source) Uint32() uint32 {
	return uint32(s.Uint64() >> 32)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits give a uniformly distributed double in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with rate lambda
// (mean 1/lambda). It is used for Poisson inter-arrival times.
func (s *Source) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: ExpFloat64 called with lambda <= 0")
	}
	u := s.Float64()
	// Guard against log(0).
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / lambda
}

// Geometric returns a geometrically distributed value in {1, 2, ...} with
// success probability p (mean 1/p). It is used for burst lengths.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return 1 + int(math.Floor(math.Log(u)/math.Log(1-p)))
}

// Choice returns a uniformly chosen index weighted by weights.
// It panics if all weights are zero or negative.
func (s *Source) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: Choice with no positive weights")
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
