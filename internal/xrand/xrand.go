// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component in the repository.
//
// All experiment results must be exactly reproducible across runs, machines,
// and Go releases, so we do not use math/rand (whose unexported algorithms
// and seeding behaviour have changed between releases). Instead we implement
// splitmix64 (for seeding and stateless hashing) and xoshiro256** (for
// streams), both with published reference outputs against which the tests
// validate.
//
// The paper's substrate separates "profile input sets" from "test input
// sets" (§5.1); in this reproduction the two inputs for a workload are two
// RNG streams derived from different seeds, so deterministic seeding is
// load-bearing for the profiling experiments.
package xrand

import "math/bits"

// SplitMix64 advances the given state and returns the next value of the
// splitmix64 sequence. It is the reference seeding generator and is also
// useful as a cheap stateless integer mixer.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a well-mixed function of x. It is the splitmix64 finaliser
// and is suitable for hashing small integers into table indices.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RNG is a xoshiro256** generator. The zero value is not valid; construct
// with New or Seed.
type RNG struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed via splitmix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed restarts r as the stream New(seed) yields, so a slice of RNG
// values can be seeded in place.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
}

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. The implementation uses Lemire's multiply-shift rejection method,
// which is unbiased and avoids division in the common case.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Shuffle pseudo-randomly shuffles the first n elements using the provided
// swap function, in the manner of math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// IntnRange returns a uniformly distributed integer in [lo, hi]. It panics
// if hi < lo.
func (r *RNG) IntnRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntnRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if the weights are empty or their
// sum is not positive.
func (r *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("xrand: WeightedChoice with no positive weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
