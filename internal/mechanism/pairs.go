package mechanism

import (
	"math/bits"

	"barterdist/internal/trace"
)

// pairTable maps a client pair's key (pairKey: the smaller id in the
// high word) to the pair's net balance: blocks the smaller id sent the
// larger minus blocks it received. It is an open-addressed table with
// linear probing over one slice of slots whose length is a power of
// two. Each slot holds a pair's key and its balance side by side, so a
// probe and the balance it books share a cache line. A zero low word
// marks an empty slot, and an empty slot's balance stays 0, so a lookup
// of an absent pair reads 0. No pair's key has a zero low word: the low
// word is the larger id, and the server (node 0) is exempt from every
// ledger, so it is always a client's.
//
// The zero value is an empty table that allocates on its first insert.
// Entries are never removed: a pair whose balance returns to 0 keeps
// its slot.
type pairTable struct {
	slots []pairSlot
	count int  // occupied slots
	shift uint // 64 - log2(len(slots)): hash bits to drop
}

// pairSlot is one pair: its key's high and low words and its balance.
type pairSlot struct {
	hi, lo uint32
	net    int32
}

func (s *pairSlot) key() uint64 { return uint64(s.hi)<<32 | uint64(s.lo) }

// The table doubles before an insert would fill more than 7/8 of its
// slots. A lower load shortens probes but costs memory: each slot is
// 12 bytes, so the table holds 13.7 to 27.4 bytes per pair.
const (
	maxLoadNum = 7
	maxLoadDen = 8
	minSlots   = 16
)

func (t *pairTable) alloc(slots int) {
	t.slots = make([]pairSlot, slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// find returns key's slot, or the empty slot where key would go.
func (t *pairTable) find(key uint64) int {
	mask := len(t.slots) - 1
	hi, lo := uint32(key>>32), uint32(key)
	// Fibonacci hashing: the top bits of key times 2^64/φ.
	for i := int((key * 0x9E3779B97F4A7C15) >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.lo == lo && s.hi == hi || s.lo == 0 {
			return i
		}
	}
}

// get returns key's balance, 0 for a pair never booked.
func (t *pairTable) get(key uint64) int32 {
	if t.count == 0 {
		return 0
	}
	return t.slots[t.find(key)].net
}

// add adds d to key's balance, booking the pair if it is new, and
// returns the pair's slot. A slot stays the pair's until the table
// next grows.
func (t *pairTable) add(key uint64, d int32) int {
	if t.slots == nil {
		t.alloc(minSlots)
	}
	i := t.find(key)
	if t.slots[i].lo == 0 {
		if (t.count+1)*maxLoadDen > len(t.slots)*maxLoadNum {
			t.resize(2 * len(t.slots))
			i = t.find(key)
		}
		t.slots[i].hi, t.slots[i].lo = uint32(key>>32), uint32(key)
		t.count++
	}
	t.slots[i].net += d
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

// reserve grows the table, if it must, so that n more pairs fit under
// the load cap with no further growth.
func (t *pairTable) reserve(n int) {
	slots := max(len(t.slots), minSlots)
	for (t.count+n)*maxLoadDen > slots*maxLoadNum {
		slots *= 2
	}
	if slots != len(t.slots) {
		t.resize(slots)
	}
}

// resize moves every pair into a table of the given number of slots.
func (t *pairTable) resize(slots int) {
	old := t.slots
	t.alloc(slots)
	for _, s := range old {
		if s.lo != 0 {
			t.slots[t.find(s.key())] = s
		}
	}
}

// maxAbs returns the largest |balance| in the table.
func (t *pairTable) maxAbs() int {
	var max int32
	for i := range t.slots {
		n := t.slots[i].net
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
// (nil when none does) and the peak |net| seen at a tick end. It stops
// at that first pair unless toEnd is set; then it walks the whole trace,
// and the peak is the one a walk with no limit would report.
//
// The walk reads the trace a span at a time and decodes only the from
// and to columns. The touched list holds the slot of each booked
// transfer's pair, so the tick-end check reads the balance without
// probing the table again. A pair booked twice in a tick appears twice.
// Every entry of a pair reads the same end-of-tick balance, so the first
// entry over the limit belongs to the pair that, among those over it,
// the tick touched first. Slots move when the table grows, so the walk
// reserves room for every transfer of a tick before it books any.
func creditWalk(cur *trace.Cursor, freeRiders []bool, limit int, toEnd bool) (*overLimit, int) {
	cur.Only(trace.ColFrom | trace.ColTo)
	var pairs pairTable
	var touched []int
	var first *overLimit
	peak := 0
	for cur.NextTick() {
		touched = touched[:0]
		pairs.reserve(cur.TickLen())
		for cur.NextSpan() {
			sp := cur.Span()
			if freeRiders != nil && sp.Dropped {
				continue
			}
			to := sp.To[:len(sp.From)]
			for j, from := range sp.From {
				u, v := int32(from), int32(to[j])
				if u == 0 || v == 0 {
					continue
				}
				if freeRiders != nil && !flagged(freeRiders, u) && !flagged(freeRiders, v) {
					continue
				}
				touched = append(touched, pairs.book(u, v, 1))
			}
		}
		for _, slot := range touched {
			s := &pairs.slots[slot]
			n, u, v := int(s.net), int32(s.hi), int32(s.lo)
			if n < 0 {
				u, v, n = v, u, -n
			}
			if n > limit && first == nil {
				first = &overLimit{tick: cur.Tick(), from: u, to: v, net: n}
				if !toEnd {
					return first, peak
				}
			}
			if n > peak {
				peak = n
			}
		}
	}
	return first, peak
}

// flagged reports whether node v is set in mask; ids outside the mask
// (possible in a doctored trace) are not.
func flagged(mask []bool, v int32) bool {
	return v > 0 && int(v) < len(mask) && mask[v]
}
