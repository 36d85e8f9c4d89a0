// Package xrand provides a small, fast, deterministic random number
// generator used by every simulation in this repository.
//
// Reproducibility is a core requirement of the experiment harness: the
// paper's figures are regenerated from fixed seeds, and two runs with the
// same seed must produce bit-identical traces. The standard library's
// math/rand/v2 would work, but pinning our own generator guarantees the
// stream is stable across Go releases and lets us document the exact
// algorithm (xoshiro256** seeded via splitmix64, the combination
// recommended by Blackman and Vigna).
package xrand

import (
	"errors"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; create one generator per goroutine (see Split).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, so that nearby
// seeds still yield decorrelated streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// ErrZeroState rejects restoring an all-zero generator state, which is
// a fixed point of xoshiro256** (the stream would be all zeros) and is
// unreachable from New, so it can only mean a corrupted snapshot.
var ErrZeroState = errors.New("xrand: all-zero state is invalid")

// State returns the generator's internal state, for checkpointing. A
// generator restored with SetState(r.State()) continues the exact same
// stream: the next Uint64 from both generators is identical, forever.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state, resuming the
// stream captured by State. The all-zero state is rejected because it
// is invalid for xoshiro256** and cannot be produced by New.
func (r *Rand) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return ErrZeroState
	}
	r.s = s
	return nil
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next value in the xoshiro256** stream. It works on
// local copies of the state so that it stays within the inliner's
// budget: every draw in the simulators goes through here.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Split returns a new generator whose stream is decorrelated from r's.
// It is used to hand independent generators to per-replication runs.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand, because a non-positive bound is always a programming error.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn bound must be positive")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// nearly-divisionless multiply-shift rejection method. Only a draw
// whose low word falls below bound can be rejected, so the common case
// stays inline and the division and retry loop live in boundedSlow.
func (r *Rand) boundedUint64(bound uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo >= bound {
		return hi
	}
	return r.boundedSlow(bound, hi, lo)
}

// boundedSlow finishes a draw whose low word lo fell below bound: it is
// accepted unless it lies in the biased band below 2^64 mod bound, and
// redrawn until it does not.
func (r *Rand) boundedSlow(bound, hi, lo uint64) uint64 {
	for thresh := -bound % bound; lo < thresh; {
		hi, lo = bits.Mul64(r.Uint64(), bound)
	}
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniform random permutation of [0, len(p)),
// drawn exactly as Perm draws one: an identity fill, then Shuffle.
func (r *Rand) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
}

// Shuffle permutes p in place (Fisher–Yates).
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample returns count distinct values drawn uniformly from [0, n) in
// random order. It panics if count > n. It runs in O(count) expected time
// for count << n (rejection from a set) and O(n) otherwise.
func (r *Rand) Sample(n, count int) []int {
	if count > n {
		panic("xrand: Sample count exceeds population")
	}
	if count <= 0 {
		return nil
	}
	// For dense samples, a partial Fisher–Yates is cheaper and exact.
	if count*4 >= n {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := 0; i < count; i++ {
			j := i + r.Intn(n-i)
			p[i], p[j] = p[j], p[i]
		}
		return p[:count:count]
	}
	seen := make(map[int]struct{}, count)
	out := make([]int, 0, count)
	for len(out) < count {
		v := r.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
