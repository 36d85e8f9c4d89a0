package swarm

import (
	"math/bits"

	"barterdist/internal/bitset"
	"barterdist/internal/xrand"
)

// Rarity is what Rarest-First ranks an offered block by. The counts
// travel as slices, not as a per-block function, because the rarity
// lookup runs once per offered block on every pick.
type Rarity struct {
	// Count is the replication count of each block.
	Count []int
	// Add, when non-nil, is added to Count: a synchronous lane's
	// in-round proposals, which will hold the block once merged.
	Add []int32
	// Local, when non-nil, replaces Count and Add: a count that depends
	// on the receiver, such as holders among its neighbors.
	Local func(b int) int
}

// PickBlock is the block-selection rule of every scheduler and protocol
// that picks a block for a chosen receiver: it returns the block from
// gives to, or -1 when from offers nothing to lacks beyond the blocks
// already bound for it. bound reports whether a block is already in
// flight or proposed to the receiver; nil means none is.
//
// The offer is walked in ascending block order, one 64-block bitset
// word of each set at a time (a full sender's words are all ones, so
// the offer is then the receiver's complement). With rarity nil the block is uniform over the offer: the
// offer is counted (without a per-block scan when nothing is bound) and
// one draw indexes into it. Otherwise the block with the least rarity
// wins, ties broken by a reservoir over the offer, one draw per tie.
func PickBlock(rng *xrand.Rand, from, to *bitset.Set, bound func(b int) bool, rarity *Rarity) int {
	fw, tw := from.Words(), to.Words()
	if rarity != nil {
		count, add, local := rarity.Count, rarity.Add, rarity.Local
		best, bestFreq, ties := -1, int(^uint(0)>>1), 0
		for wi, t := range tw {
			for d := fw[wi] &^ t; d != 0; d &= d - 1 {
				b := wi*64 + bits.TrailingZeros64(d)
				if bound != nil && bound(b) {
					continue
				}
				var f int
				switch {
				case local != nil:
					f = local(b)
				case add != nil:
					f = count[b] + int(add[b])
				default:
					f = count[b]
				}
				switch {
				case f < bestFreq:
					best, bestFreq, ties = b, f, 1
				case f == bestFreq:
					ties++
					if rng.Intn(ties) == 0 {
						best = b
					}
				}
			}
		}
		return best
	}
	n := 0
	switch {
	case bound == nil && from.Full():
		n = to.Cap() - to.Count()
	case bound == nil:
		n = from.DiffCount(to)
	default:
		for wi, t := range tw {
			for d := fw[wi] &^ t; d != 0; d &= d - 1 {
				if !bound(wi*64 + bits.TrailingZeros64(d)) {
					n++
				}
			}
		}
	}
	if n == 0 {
		return -1
	}
	target := rng.Intn(n)
	for wi, t := range tw {
		for d := fw[wi] &^ t; d != 0; d &= d - 1 {
			b := wi*64 + bits.TrailingZeros64(d)
			if bound != nil && bound(b) {
				continue
			}
			if target == 0 {
				return b
			}
			target--
		}
	}
	return -1
}

// Offers is the interest test PickBlock answers: it reports whether
// from holds a block to lacks that bound (nil when nothing is bound for
// to) does not already cover. It makes no draw.
func Offers(from, to *bitset.Set, bound func(b int) bool) bool {
	if bound == nil {
		return from.AnyMissingFrom(to)
	}
	fw := from.Words()
	for wi, t := range to.Words() {
		for d := fw[wi] &^ t; d != 0; d &= d - 1 {
			if !bound(wi*64 + bits.TrailingZeros64(d)) {
				return true
			}
		}
	}
	return false
}
