package randomized

import (
	"barterdist/internal/simulate"
)

// eligIndex is the incremental missing-block / eligibility index behind
// the complete-graph fast path: for every block b it keeps the exact
// set of candidate receivers (alive, incomplete clients) that still
// lack b, as a swap-remove member list plus a position slab.
//
// The representation is chosen for the two operations the sharded tick
// needs to be O(1):
//
//   - update: a delivery, crash, or rejoin moves one (block, node) pair
//     in or out in constant time (swap-remove through pos);
//   - interest: an uploader has an audience exactly when one of its
//     blocks has a non-empty list — one AND per word of its block set
//     against the nonEmpty mask — and the exact fallback pass
//     enumerates exactly those lists' members instead of
//     subset-testing every incomplete client (the O(n)
//     bitset.AnyMissingFrom scan that DESIGN.md §11.3 measured at ~40%
//     of CPU on the credit-limited path).
//
// The index is maintained only between rounds (beginTick and the merge
// run on the coordinating goroutine); during a pairing round every lane
// reads it concurrently, which is safe because nothing mutates it
// mid-tick — ground-truth block sets only change when the engine
// applies the tick's transfers, and the next beginTick folds exactly
// those committed transfers back in. TestEligIndexMatchesScan pins the
// incremental maintenance against the from-scratch predicate scan after
// every tick of churny, credit-limited, adversarial runs.
//
// Within a tick each list also has an open prefix, members[b·n :
// b·n+open[b]]: the exact pass enumerates only that prefix. Behind it
// sit members the merge has saturated this tick (availPos < 0), which
// fail the download-cap check in every lane. compact moves them there
// between rounds, lazily, only for lists an exact pass read; beginTick
// runs its adds and removes on the full lists and then reopens every
// prefix, so open equals count whenever a tick starts and nothing about
// it needs checkpointing.
type eligIndex struct {
	n, k    int
	count   []int32 // count[b] = number of candidates missing block b
	open    []int32 // open[b] ≤ count[b]: list b's unsaturated prefix this tick
	members []int32 // k·n slab; list b is members[b·n : b·n+count[b]]
	pos     []int32 // k·n slab; pos[b·n+v] = index of v in list b, -1 if absent

	// nonEmpty is the k-bit set {b : count[b] > 0}, in bitset word
	// layout; add and remove keep it on each 0↔1 count transition.
	nonEmpty []uint64
}

// newEligIndex returns an empty index for n nodes and k blocks.
func newEligIndex(n, k int) *eligIndex {
	ix := &eligIndex{
		n:       n,
		k:       k,
		count:   make([]int32, k),
		open:    make([]int32, k),
		members: make([]int32, k*n),
		pos:     make([]int32, k*n),
	}
	ix.nonEmpty = make([]uint64, (k+63)/64)
	for i := range ix.pos {
		ix.pos[i] = -1
	}
	return ix
}

// add records that candidate v is missing block b (idempotent).
func (ix *eligIndex) add(b, v int) {
	base := b * ix.n
	if ix.pos[base+v] >= 0 {
		return
	}
	ix.pos[base+v] = ix.count[b]
	ix.members[base+int(ix.count[b])] = int32(v)
	if ix.count[b] == 0 {
		ix.nonEmpty[b/64] |= 1 << (uint(b) % 64)
	}
	ix.count[b]++
}

// remove records that v is no longer a candidate missing b (idempotent):
// it received the block, completed, or crashed.
func (ix *eligIndex) remove(b, v int) {
	base := b * ix.n
	p := ix.pos[base+v]
	if p < 0 {
		return
	}
	last := ix.count[b] - 1
	moved := ix.members[base+int(last)]
	ix.members[base+int(p)] = moved
	ix.pos[base+int(moved)] = p
	ix.count[b] = last
	ix.pos[base+v] = -1
	if last == 0 {
		ix.nonEmpty[b/64] &^= 1 << (uint(b) % 64)
	}
}

// missesAny reports whether some candidate misses a block of the set
// whose words are given: whether a list of one of its blocks is
// non-empty.
func (ix *eligIndex) missesAny(words []uint64) bool {
	for i, w := range words {
		if w&ix.nonEmpty[i] != 0 {
			return true
		}
	}
	return false
}

// compact moves list b's saturated members (availPos[v] < 0) from its
// open prefix to just behind it, keeping pos in step. It scans the
// prefix once, so it costs no more than the exact pass that read the
// list. Saturation only grows within a tick, so members already behind
// the prefix stay behind it.
func (ix *eligIndex) compact(b int, availPos []int32) {
	base := b * ix.n
	open := ix.open[b]
	for i := int32(0); i < open; {
		v := ix.members[base+int(i)]
		if availPos[v] >= 0 {
			i++
			continue
		}
		open--
		w := ix.members[base+int(open)]
		ix.members[base+int(i)] = w
		ix.pos[base+int(w)] = i
		ix.members[base+int(open)] = v
		ix.pos[base+int(v)] = open
	}
	ix.open[b] = open
}

// reopen makes every list's open prefix the whole list again, for a
// new tick.
func (ix *eligIndex) reopen() { copy(ix.open, ix.count) }

// has reports whether v is currently indexed as missing b.
func (ix *eligIndex) has(b, v int) bool { return ix.pos[b*ix.n+v] >= 0 }

// addNode indexes every block v is missing (a fresh candidate or a
// rejoiner), straight off the ground-truth block set.
func (ix *eligIndex) addNode(st *simulate.State, v int) {
	st.Blocks(v).IterateMissing(func(b int) bool {
		ix.add(b, v)
		return true
	})
}

// removeNode drops v from every block list it appears in (a crash; a
// completed node has already been removed block by block as deliveries
// landed).
func (ix *eligIndex) removeNode(st *simulate.State, v int) {
	st.Blocks(v).IterateMissing(func(b int) bool {
		ix.remove(b, v)
		return true
	})
}
