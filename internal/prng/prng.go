// Package prng provides small, fast, deterministic pseudo-random
// number generators for the simulation engine.
//
// Determinism matters here: the simulation result of a randomized
// BSP*-to-EM simulation run (Algorithms 1–3 of the paper) must be
// reproducible across the in-memory reference runner, the sequential
// EM engine and the multiprocessor EM engine, regardless of goroutine
// scheduling. Every random stream is therefore keyed explicitly by
// (seed, consumer identity) via Derive, never by shared global state.
//
// The generator is xoshiro256**, seeded through SplitMix64, following
// Blackman & Vigna. It is not cryptographic.
package prng

import (
	"math/bits"
	"time"
)

// SplitMix64 advances the SplitMix64 state and returns the next value.
// It is used for seeding and for key derivation.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive deterministically combines a seed with a sequence of
// identifiers (virtual processor id, superstep index, ...) into a new
// seed. Distinct identifier tuples yield statistically independent
// streams.
func Derive(seed uint64, ids ...uint64) uint64 {
	s := seed
	out := SplitMix64(&s)
	for _, id := range ids {
		s ^= id
		out = SplitMix64(&s) ^ bits.RotateLeft64(out, 17)
	}
	return out
}

// Rand is a xoshiro256** generator.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64.
func New(seed uint64) *Rand {
	var r Rand
	r.Seed(seed)
	return &r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	s := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&s)
	}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
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

// State returns the generator's internal state. The engines store it
// in superstep checkpoint manifests so a rolled-back superstep can be
// replayed with identical draws.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state previously captured by State.
func (r *Rand) SetState(s [4]uint64) { r.s = s }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform random boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniform random permutation of [0, n) as a new slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// PermInto fills p with a uniform random permutation of [0, len(p)),
// avoiding allocation.
func (r *Rand) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// BackoffDelay is the wait before retry attempt+1: exponential from
// 50ms, capped at 2s, with ±25% jitter drawn deterministically from
// the seed and attempt number. It is the schedule of the job
// supervisor's retries.
// The exponent is clamped before shifting: 50ms<<6 already exceeds the
// 2s cap, and an unclamped shift wraps int64 around attempt 40,
// producing a bogus small-or-negative base before the cap could catch
// it.
func BackoffDelay(seed uint64, attempt int) time.Duration {
	k := attempt - 1
	switch {
	case k < 0:
		k = 0
	case k > 6:
		k = 6
	}
	base := 50 * time.Millisecond << k
	if base > 2*time.Second {
		base = 2 * time.Second
	}
	r := New(seed ^ (uint64(attempt) * 0x9e3779b97f4a7c15))
	return time.Duration((0.75 + 0.5*r.Float64()) * float64(base))
}
