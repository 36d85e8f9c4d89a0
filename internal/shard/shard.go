// Package shard defines the fixed logical decomposition of a peer
// population used by the intra-run sharded tick core.
//
// The central design decision is that the number of logical shards is a
// package constant, NOT the worker count: peers are assigned to one of
// Slots lanes by id alone, each lane owns an independent xrand
// sub-stream derived from the run seed via parallel.SeedStride, and the
// runtime worker count merely decides how many lanes are resolved
// concurrently between two barriers. Every per-peer random draw
// therefore comes from a stream whose identity and position depend only
// on (seed, peer id, tick history) — never on how many OS workers the
// host happens to run — which is what makes the sharded schedulers'
// fingerprints byte-identical for any worker count, the same contract
// internal/parallel proves for replicate-level parallelism.
package shard

import (
	"fmt"

	"barterdist/internal/parallel"
	"barterdist/internal/xrand"
)

// Slots is the fixed number of logical shards (lanes). It is part of
// the determinism contract: changing it changes every sharded
// scheduler's draw sequences and hence every recorded fingerprint, so
// it is a compile-time constant rather than a knob. Eight lanes keep
// the per-lane receiver-indexed scratch affordable at n = 10^6 while
// saturating the worker counts the test matrix pins (P ∈ {1,2,3,8}).
const Slots = 8

// Of returns the logical shard that owns peer v. Assignment is a pure
// function of the peer id so it is independent of the runtime layout.
func Of(v int) int { return v % Slots }

// StreamSeed derives lane sg's xrand seed from the run's base seed
// using the canonical golden-ratio stride, offset by one so lane 0 does
// not alias the scheduler's base stream (which keeps rewiring and other
// lane-independent draws on their own sequence).
func StreamSeed(base uint64, sg int) uint64 {
	return base + uint64(sg+1)*parallel.SeedStride
}

// laneStream is one lane's generator state padded out to 128 bytes, two
// cache lines (x86 prefetches lines in pairs). Lanes draw concurrently
// on different workers and every draw writes the state back, so eight
// bare 32-byte states allocated side by side would share lines, and
// each draw by one worker would steal the line another worker draws
// from next.
type laneStream struct {
	r xrand.Rand
	_ [128 - 32]byte
}

// Streams returns Slots freshly seeded lane streams for the given base
// seed, each in its own 128-byte block.
func Streams(base uint64) [Slots]*xrand.Rand {
	ls := new([Slots]laneStream)
	var st [Slots]*xrand.Rand
	for sg := range st {
		ls[sg].r = *xrand.New(StreamSeed(base, sg))
		st[sg] = &ls[sg].r
	}
	return st
}

// Members returns the ascending peer ids of lane sg in a population of
// n nodes: sg, sg+Slots, sg+2·Slots, … The caller owns the slice.
func Members(n, sg int) []int32 {
	if sg < 0 || sg >= Slots {
		panic(fmt.Sprintf("shard: lane %d out of range [0,%d)", sg, Slots))
	}
	ms := make([]int32, 0, (n-sg+Slots-1)/Slots)
	for v := sg; v < n; v += Slots {
		ms = append(ms, int32(v))
	}
	return ms
}

// Workers clamps a configured worker count to the useful range: 0 (the
// zero value) and 1 both mean inline sequential resolution, and more
// than Slots workers cannot help because there are only Slots lanes.
func Workers(w int) int {
	if w <= 1 {
		return 1
	}
	if w > Slots {
		return Slots
	}
	return w
}

// Run resolves the Slots lanes on w workers and waits for all of them —
// the per-round barrier of the sharded tick. w == 1 runs inline on the
// caller's goroutine with no allocation (the property the steady-state
// alloc regression tests pin). A panic in any lane is wrapped in
// *parallel.PanicError and returned after the barrier, never swallowed.
func Run(w int, task func(sg int) error) error {
	return parallel.ForEach(Workers(w), Slots, task)
}

// Shuffle32 permutes p in place by Fisher–Yates using draws from rng —
// the []int32 counterpart of xrand.Shuffle, consuming the identical
// draw sequence for the identical length.
func Shuffle32(rng *xrand.Rand, p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
