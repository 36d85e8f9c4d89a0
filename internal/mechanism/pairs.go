package mechanism

import (
	"math/bits"

	"barterdist/internal/trace"
)

// pairTable maps a client pair's key (pairKey: the smaller id in the
// high word) to the pair's net balance: blocks the smaller id sent the
// larger minus blocks it received. It is an open-addressed table with
// linear probing over parallel key and balance slices whose length is
// a power of two. Key 0 marks an empty slot, and an empty slot's
// balance stays 0, so a lookup of an absent pair reads 0. No pair has
// key 0: the server (node 0) is exempt from every ledger, so every key
// has a non-zero client id in it.
//
// The zero value is an empty table that allocates on its first insert.
// Entries are never removed: a pair whose balance returns to 0 keeps
// its slot.
type pairTable struct {
	keys  []uint64
	net   []int32
	count int  // occupied slots
	shift uint // 64 - log2(len(keys)): hash bits to drop
}

// The table doubles before an insert would fill more than 7/8 of its
// slots. A lower load shortens probes but costs memory: each slot is
// 12 bytes, so the table holds 13.7 to 27.4 bytes per pair.
const (
	maxLoadNum = 7
	maxLoadDen = 8
	minSlots   = 16
)

func (t *pairTable) alloc(slots int) {
	t.keys = make([]uint64, slots)
	t.net = make([]int32, slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// find returns key's slot, or the empty slot where key would go.
func (t *pairTable) find(key uint64) int {
	mask := len(t.keys) - 1
	// Fibonacci hashing: the top bits of key times 2^64/φ.
	for i := int((key * 0x9E3779B97F4A7C15) >> t.shift); ; i = (i + 1) & mask {
		if k := t.keys[i]; k == key || k == 0 {
			return i
		}
	}
}

// get returns key's balance, 0 for a pair never booked.
func (t *pairTable) get(key uint64) int32 {
	if t.count == 0 {
		return 0
	}
	return t.net[t.find(key)]
}

// add adds d to key's balance, booking the pair if it is new, and
// returns the pair's slot. A slot stays the pair's until the table
// next grows.
func (t *pairTable) add(key uint64, d int32) int {
	if t.keys == nil {
		t.alloc(minSlots)
	}
	i := t.find(key)
	if t.keys[i] == 0 {
		if (t.count+1)*maxLoadDen > len(t.keys)*maxLoadNum {
			t.grow()
			i = t.find(key)
		}
		t.keys[i] = key
		t.count++
	}
	t.net[i] += d
	return i
}

// book adds d blocks sent from u to v to the pair's balance and returns
// the pair's slot.
func (t *pairTable) book(u, v, d int32) int {
	key, swapped := pairKey(u, v)
	if swapped {
		return t.add(key, -d)
	}
	return t.add(key, d)
}

func (t *pairTable) grow() {
	keys, net := t.keys, t.net
	t.alloc(2 * len(keys))
	for i, k := range keys {
		if k != 0 {
			j := t.find(k)
			t.keys[j], t.net[j] = k, net[i]
		}
	}
}

// maxAbs returns the largest |balance| in the table.
func (t *pairTable) maxAbs() int {
	var max int32
	for _, n := range t.net {
		if n < 0 {
			n = -n
		}
		if n > max {
			max = n
		}
	}
	return int(max)
}

// overLimit is where a credit walk stopped: at the end of tick, from
// had sent to net blocks more than it received, above the walk's limit.
type overLimit struct {
	tick     int
	from, to int32
	net      int
}

func (o *overLimit) violation(reason string) *Violation {
	return &Violation{Tick: o.tick, From: o.from, To: o.to, Reason: reason}
}

// creditWalk books every client-to-client transfer cur yields into a
// pair table and, at the end of each tick, checks the balance of every
// pair the tick touched. freeRiders, when non-nil, selects the
// starvation view: only delivered transfers with a flagged endpoint are
// booked. The walk returns the first pair whose |net| exceeds limit
// (nil when none does) and the peak |net| seen at a tick end.
//
// The touched list holds the slot of each booked transfer's pair, so
// the tick-end check reads the balance without probing the table again.
// A pair booked twice in a tick appears twice. Every entry of a pair
// reads the same end-of-tick balance, so the first entry over the limit
// belongs to the pair that, among those over it, the tick touched
// first. When the table grows mid-tick its slots move, and the tick's
// earlier entries are found again in the new layout.
func creditWalk(cur *trace.Cursor, freeRiders []bool, limit int) (*overLimit, int) {
	var pairs pairTable
	var touched []int
	peak := 0
	for cur.NextTick() {
		touched = touched[:0]
		for cur.Next() {
			tr := cur.Transfer()
			u, v := tr.From, tr.To
			if u == 0 || v == 0 {
				continue
			}
			if freeRiders != nil && (cur.Dropped() || !flagged(freeRiders, u) && !flagged(freeRiders, v)) {
				continue
			}
			keys := pairs.keys // the layout touched's slots index
			slot := pairs.book(u, v, 1)
			if len(pairs.keys) != len(keys) {
				for j, old := range touched {
					touched[j] = pairs.find(keys[old])
				}
			}
			touched = append(touched, slot)
		}
		for _, slot := range touched {
			n, key := int(pairs.net[slot]), pairs.keys[slot]
			u, v := int32(key>>32), int32(uint32(key))
			if n < 0 {
				u, v, n = v, u, -n
			}
			if n > limit {
				return &overLimit{tick: cur.Tick(), from: u, to: v, net: n}, peak
			}
			if n > peak {
				peak = n
			}
		}
	}
	return nil, peak
}

// flagged reports whether node v is set in mask; ids outside the mask
// (possible in a doctored trace) are not.
func flagged(mask []bool, v int32) bool {
	return v > 0 && int(v) < len(mask) && mask[v]
}
