package swarm

import (
	"testing"

	"barterdist/internal/bitset"
	"barterdist/internal/xrand"
)

// The reference pickers below are the three block-selection rules and
// the two interest tests as each scheduler and protocol wrote them
// before they shared PickBlock and Offers, transcribed to free
// functions over the same inputs. TestPickBlockMatchesReferencePickers
// holds the shared rule to every one of them: the same block and the
// same draw-stream state after every pick.

// referenceSyncPickBlock is randomized.Scheduler.pickBlock: rarest
// reads freq plus the lane's freqAdd, or local when it is set
// (LocalRare); inflight is the scheduler's stamp test and
// blockInFlight its per-block check.
func referenceSyncPickBlock(rng *xrand.Rand, k int, bu, bv *bitset.Set, rarest bool,
	freq []int, freqAdd []int32, local func(b int) int, inflight bool, blockInFlight func(b int32) bool) int {
	useful := func(b int) bool {
		return !inflight || !blockInFlight(int32(b))
	}
	offered := func(fn func(b int) bool) {
		if bu.Full() {
			bv.IterateMissing(fn)
		} else {
			bu.IterDiff(bv, fn)
		}
	}
	blockFreq := func(b int) int {
		if local != nil {
			return local(b)
		}
		return freq[b] + int(freqAdd[b])
	}
	if rarest {
		best, bestFreq, ties := -1, int(^uint(0)>>1), 0
		offered(func(b int) bool {
			if !useful(b) {
				return true
			}
			f := blockFreq(b)
			switch {
			case f < bestFreq:
				best, bestFreq, ties = b, f, 1
			case f == bestFreq:
				ties++
				if rng.Intn(ties) == 0 {
					best = b
				}
			}
			return true
		})
		return best
	}
	count := 0
	switch {
	case !inflight && bu.Full():
		count = k - bv.Count()
	case !inflight:
		count = bu.DiffCount(bv)
	default:
		offered(func(b int) bool {
			if useful(b) {
				count++
			}
			return true
		})
	}
	if count == 0 {
		return -1
	}
	target := rng.Intn(count)
	chosen := -1
	offered(func(b int) bool {
		if !useful(b) {
			return true
		}
		if target == 0 {
			chosen = b
			return false
		}
		target--
		return true
	})
	return chosen
}

// referenceNeedsSomething is randomized.Scheduler.needsSomething.
func referenceNeedsSomething(bu, bv *bitset.Set, inflight bool, blockInFlight func(b int32) bool) bool {
	if !inflight {
		return bu.AnyMissingFrom(bv)
	}
	need := false
	bu.IterDiff(bv, func(b int) bool {
		if blockInFlight(int32(b)) {
			return true
		}
		need = true
		return false
	})
	return need
}

// referenceAsyncPickBlock is asim.AsyncRandomized.pickBlock.
func referenceAsyncPickBlock(rng *xrand.Rand, bu, bv *bitset.Set, rarest bool, freq []int, inFlightTo func(b int) bool) int {
	offered := func(fn func(b int) bool) {
		if bu.Full() {
			bv.IterateMissing(fn)
		} else {
			bu.IterDiff(bv, fn)
		}
	}
	if rarest {
		best, bestFreq, ties := -1, int(^uint(0)>>1), 0
		offered(func(b int) bool {
			if inFlightTo(b) {
				return true
			}
			switch {
			case freq[b] < bestFreq:
				best, bestFreq, ties = b, freq[b], 1
			case freq[b] == bestFreq:
				ties++
				if rng.Intn(ties) == 0 {
					best = b
				}
			}
			return true
		})
		return best
	}
	count := 0
	offered(func(b int) bool {
		if !inFlightTo(b) {
			count++
		}
		return true
	})
	if count == 0 {
		return -1
	}
	target := rng.Intn(count)
	chosen := -1
	offered(func(b int) bool {
		if inFlightTo(b) {
			return true
		}
		if target == 0 {
			chosen = b
			return false
		}
		target--
		return true
	})
	return chosen
}

// referenceUsefulFor is asim.AsyncRandomized.usefulFor.
func referenceUsefulFor(bu, bv *bitset.Set, inFlightCount int, inFlightTo func(b int) bool) bool {
	if inFlightCount == 0 {
		return bv.FirstMissingIn(bu) >= 0
	}
	need := false
	bu.IterDiff(bv, func(b int) bool {
		if inFlightTo(b) {
			return true
		}
		need = true
		return false
	})
	return need
}

// referenceRarestNeeded is bt.Protocol.rarestNeeded.
func referenceRarestNeeded(rng *xrand.Rand, bu, bv *bitset.Set, freq []int, inFlightTo func(b int) bool) int {
	offered := func(fn func(b int) bool) {
		if bu.Full() {
			bv.IterateMissing(fn)
		} else {
			bu.IterDiff(bv, fn)
		}
	}
	best, bestFreq, ties := -1, int(^uint(0)>>1), 0
	offered(func(b int) bool {
		if inFlightTo(b) {
			return true
		}
		switch {
		case freq[b] < bestFreq:
			best, bestFreq, ties = b, freq[b], 1
		case freq[b] == bestFreq:
			ties++
			if rng.Intn(ties) == 0 {
				best = b
			}
		}
		return true
	})
	return best
}

// pickCase is one seeded input: a sender's and a receiver's holdings,
// the blocks bound for the receiver, and the rarity tables.
type pickCase struct {
	k       int
	bu, bv  *bitset.Set
	bound   map[int]bool
	stamped bool // the sync scheduler's stamp says something may be bound
	freq    []int
	freqAdd []int32
	local   []int
}

func randomSet(rng *xrand.Rand, k int, full bool) *bitset.Set {
	s := bitset.New(k)
	density := rng.Float64()
	for b := 0; b < k; b++ {
		if full || rng.Float64() < density {
			s.Add(b)
		}
	}
	return s
}

func newPickCase(rng *xrand.Rand) pickCase {
	ks := []int{1, 2, 7, 63, 64, 65, 130, 512}
	k := ks[rng.Intn(len(ks))]
	c := pickCase{k: k, bu: randomSet(rng, k, rng.Intn(4) == 0), bv: randomSet(rng, k, false),
		bound: map[int]bool{}, freq: make([]int, k), freqAdd: make([]int32, k), local: make([]int, k)}
	// A few distinct values so ties are common.
	levels := 1 + rng.Intn(4)
	for b := 0; b < k; b++ {
		c.freq[b] = 1 + rng.Intn(levels)
		c.local[b] = rng.Intn(levels)
		if rng.Intn(3) == 0 {
			c.freqAdd[b] = int32(rng.Intn(2))
		}
	}
	// Bound blocks: none, some of the offer, or blocks outside it; the
	// stamp can be set with nothing bound at all.
	switch rng.Intn(4) {
	case 0:
	case 1:
		c.stamped = true
	default:
		c.stamped = true
		for n := 1 + rng.Intn(6); n > 0; n-- {
			c.bound[rng.Intn(k)] = true
		}
		c.bu.IterDiff(c.bv, func(b int) bool {
			if rng.Intn(3) == 0 {
				c.bound[b] = true
			}
			return true
		})
	}
	return c
}

func TestPickBlockMatchesReferencePickers(t *testing.T) {
	gen := xrand.New(2024)
	// The generator must produce ties, bound blocks inside the offer,
	// full senders and empty offers, or agreement would prove little.
	var ties, boundInOffer, full, empty int
	for i := 0; i < 4000; i++ {
		c := newPickCase(gen)
		last := -1
		c.bu.IterDiff(c.bv, func(b int) bool {
			if c.bound[b] {
				boundInOffer++
			}
			if last >= 0 && c.freq[b] == c.freq[last] {
				ties++
			}
			last = b
			return true
		})
		if c.bu.Full() {
			full++
		}
		if !c.bu.AnyMissingFrom(c.bv) {
			empty++
		}
		inFlightTo := func(b int) bool { return c.bound[b] }
		blockInFlight := func(b int32) bool { return c.bound[int(b)] }
		var bound func(b int) bool
		if len(c.bound) > 0 {
			bound = inFlightTo
		}
		var stampBound func(b int) bool
		if c.stamped {
			stampBound = inFlightTo
		}
		localOf := func(b int) int { return c.local[b] }
		seed := gen.Uint64()

		type pick struct {
			name      string
			reference func(*xrand.Rand) int
			shared    func(*xrand.Rand) int
		}
		picks := []pick{
			{"sync-random",
				func(r *xrand.Rand) int {
					return referenceSyncPickBlock(r, c.k, c.bu, c.bv, false, nil, nil, nil, c.stamped, blockInFlight)
				},
				func(r *xrand.Rand) int { return PickBlock(r, c.bu, c.bv, stampBound, nil) }},
			{"sync-rarest",
				func(r *xrand.Rand) int {
					return referenceSyncPickBlock(r, c.k, c.bu, c.bv, true, c.freq, c.freqAdd, nil, c.stamped, blockInFlight)
				},
				func(r *xrand.Rand) int {
					return PickBlock(r, c.bu, c.bv, stampBound, &Rarity{Count: c.freq, Add: c.freqAdd})
				}},
			{"sync-local",
				func(r *xrand.Rand) int {
					return referenceSyncPickBlock(r, c.k, c.bu, c.bv, true, nil, nil, localOf, c.stamped, blockInFlight)
				},
				func(r *xrand.Rand) int { return PickBlock(r, c.bu, c.bv, stampBound, &Rarity{Local: localOf}) }},
			{"async-random",
				func(r *xrand.Rand) int { return referenceAsyncPickBlock(r, c.bu, c.bv, false, c.freq, inFlightTo) },
				func(r *xrand.Rand) int { return PickBlock(r, c.bu, c.bv, bound, nil) }},
			{"async-rarest",
				func(r *xrand.Rand) int { return referenceAsyncPickBlock(r, c.bu, c.bv, true, c.freq, inFlightTo) },
				func(r *xrand.Rand) int { return PickBlock(r, c.bu, c.bv, bound, &Rarity{Count: c.freq}) }},
			{"bt",
				func(r *xrand.Rand) int { return referenceRarestNeeded(r, c.bu, c.bv, c.freq, inFlightTo) },
				func(r *xrand.Rand) int { return PickBlock(r, c.bu, c.bv, bound, &Rarity{Count: c.freq}) }},
		}
		for _, p := range picks {
			ref, got := xrand.New(seed), xrand.New(seed)
			// Several picks on one stream, so a draw the shared rule
			// makes or skips shows in every later pick too.
			for j := 0; j < 3; j++ {
				want, have := p.reference(ref), p.shared(got)
				if want != have || ref.State() != got.State() {
					t.Fatalf("case %d %s pick %d (k=%d full=%v bound=%v): reference %d, shared %d; streams equal %v",
						i, p.name, j, c.k, c.bu.Full(), c.bound, want, have, ref.State() == got.State())
				}
			}
		}
		if want, got := referenceNeedsSomething(c.bu, c.bv, c.stamped, blockInFlight), Offers(c.bu, c.bv, stampBound); want != got {
			t.Fatalf("case %d: needsSomething %v, Offers %v", i, want, got)
		}
		if want, got := referenceUsefulFor(c.bu, c.bv, len(c.bound), inFlightTo), Offers(c.bu, c.bv, bound); want != got {
			t.Fatalf("case %d: usefulFor %v, Offers %v", i, want, got)
		}
	}
	if ties == 0 || boundInOffer == 0 || full == 0 || empty == 0 {
		t.Fatalf("generator coverage: %d ties, %d bound blocks in an offer, %d full senders, %d empty offers",
			ties, boundInOffer, full, empty)
	}
}
