// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the library.
//
// All randomized components (graph sampling, Monte-Carlo simulation, dataset
// generation, the Rand heuristic) take an explicit *rng.Source so that every
// experiment is reproducible from a single uint64 seed. The generator is
// xoshiro256**, seeded through splitmix64 as recommended by its authors; it
// is not cryptographically secure, which is fine for simulation work.
//
// Sources are not safe for concurrent use. Parallel workers should each own
// a Source derived with Split, which produces statistically independent
// streams.
package rng

// Source is a deterministic xoshiro256** generator.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used to expand a single seed into the four xoshiro words and to
// derive child seeds in Split.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator to the state produced by seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but keep the guard for safety.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p. Values p <= 0 never succeed
// and p >= 1 always succeed, so certain edges never consume entropy
// incorrectly at the boundaries.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask32) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// Perm returns a random permutation of [0, n) as a new slice.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap, as rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split derives a child Source whose stream is independent of both the
// parent's subsequent output and other children. Worker i of a parallel
// stage should use parent.Split(uint64(i)).
func (r *Source) Split(i uint64) *Source {
	// Mix the child index into a fresh splitmix64 chain keyed by the
	// parent state so distinct (parent, i) pairs give distinct streams.
	sm := r.s0 ^ rotl(r.s2, 29) ^ (i * 0xd1342543de82ef95)
	child := splitmix64(&sm) ^ i
	return New(child)
}
