// Package bitset implements a dense fixed-capacity bit set used to track
// which blocks of the file each node holds.
//
// The simulator's inner loops — "does neighbor v need any block u has?",
// "which is the rarest block v needs?" — are all set operations over block
// IDs, so the representation is a packed []uint64 with word-at-a-time
// AndNot/intersection scans. All sets in one simulation share a capacity
// (the block count k); mixing capacities is a programming error and
// panics.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set over [0, Cap()).
type Set struct {
	words []uint64
	n     int // capacity in bits
	count int // cached population count
}

// New returns an empty set with capacity n bits. n must be non-negative.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Cap returns the capacity in bits.
func (s *Set) Cap() int { return s.n }

// Count returns the number of set bits. It is O(1).
func (s *Set) Count() int { return s.count }

// Full reports whether every bit in [0, Cap()) is set.
func (s *Set) Full() bool { return s.count == s.n }

// Empty reports whether no bit is set.
func (s *Set) Empty() bool { return s.count == 0 }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Add sets bit i and reports whether it was newly set.
func (s *Set) Add(i int) bool {
	s.check(i)
	w, m := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	if s.words[w]&m != 0 {
		return false
	}
	s.words[w] |= m
	s.count++
	return true
}

// Remove clears bit i and reports whether it was previously set.
func (s *Set) Remove(i int) bool {
	s.check(i)
	w, m := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	if s.words[w]&m == 0 {
		return false
	}
	s.words[w] &^= m
	s.count--
	return true
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n, count: s.count}
	copy(c.words, s.words)
	return c
}

// Fill sets every bit in [0, Cap()).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if extra := s.n % wordBits; extra != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << uint(extra)) - 1
	}
	s.count = s.n
}

// Clear removes all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

func (s *Set) sameCap(o *Set) {
	if s.n != o.n {
		panic("bitset: capacity mismatch")
	}
}

// AnyMissingFrom reports whether s holds at least one bit that o lacks,
// i.e. whether s \ o is non-empty. In protocol terms: "does the holder of
// s have anything the holder of o wants?"
func (s *Set) AnyMissingFrom(o *Set) bool {
	s.sameCap(o)
	// Cheap pre-filter: if o already has at least as many bits and is a
	// superset the scan below returns false; the counts alone can prove
	// non-emptiness only when s has more bits than o.
	if s.count > o.count {
		return true
	}
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return true
		}
	}
	return false
}

// DiffCount returns |s \ o|.
func (s *Set) DiffCount(o *Set) int {
	s.sameCap(o)
	total := 0
	for i, w := range s.words {
		total += bits.OnesCount64(w &^ o.words[i])
	}
	return total
}

// IterDiff calls fn for each bit in s \ o, in ascending order, until fn
// returns false. It allocates nothing.
func (s *Set) IterDiff(o *Set, fn func(i int) bool) {
	s.sameCap(o)
	for wi, w := range s.words {
		d := w &^ o.words[wi]
		for d != 0 {
			b := bits.TrailingZeros64(d)
			if !fn(wi*wordBits + b) {
				return
			}
			d &= d - 1
		}
	}
}

// IterateMissing calls fn for each bit in [0, Cap()) NOT in s, in
// ascending order, until fn returns false. It scans word complements
// (one AndNot + trailing-zeros chain per 64 blocks, no per-block loop),
// so asking a nearly complete receiver "which blocks are you still
// missing?" costs O(n/64) plus one callback per genuinely absent block.
// It is also IterDiff specialized to a full left-hand set: a seed (or
// any complete node) offers exactly the receiver's complement.
func (s *Set) IterateMissing(fn func(i int) bool) {
	last := len(s.words) - 1
	for wi, w := range s.words {
		d := ^w
		if wi == last {
			if tail := uint(s.n % wordBits); tail != 0 {
				d &= (1 << tail) - 1
			}
		}
		for d != 0 {
			b := bits.TrailingZeros64(d)
			if !fn(wi*wordBits + b) {
				return
			}
			d &= d - 1
		}
	}
}

// FirstMissingIn returns the smallest i that o holds and s lacks — the
// first block the holder of s could obtain from the holder of o — or -1
// when o offers nothing new. It is AnyMissingFrom read from the
// receiver's side, but returns the witness block, and short-circuits on
// the first non-zero word.
func (s *Set) FirstMissingIn(o *Set) int {
	s.sameCap(o)
	for wi, ow := range o.words {
		if d := ow &^ s.words[wi]; d != 0 {
			return wi*wordBits + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// Words exposes the set's backing words, least-significant block first.
// Callers must treat the slice as read-only: writing through it bypasses
// the cached population count. It exists for word-at-a-time consumers
// (rarity accounting, fingerprints) that would otherwise pay one Has
// bounds check per bit.
func (s *Set) Words() []uint64 { return s.words }

// SetWords overwrites the set's contents from a word slice previously
// obtained via Words(), validating the shape: the slice must have
// exactly the word count for Cap() bits, and no bit beyond Cap() may
// be set. It recomputes the cached population count. It exists for
// checkpoint restore; a corrupted snapshot surfaces as an error here,
// never as a set whose count disagrees with its words.
func (s *Set) SetWords(words []uint64) error {
	if len(words) != len(s.words) {
		return fmt.Errorf("bitset: SetWords got %d words, capacity %d needs %d",
			len(words), s.n, len(s.words))
	}
	if tail := uint(s.n % wordBits); tail != 0 && len(words) > 0 {
		if words[len(words)-1]&^((1<<tail)-1) != 0 {
			return fmt.Errorf("bitset: SetWords has bits beyond capacity %d", s.n)
		}
	}
	count := 0
	for i, w := range words {
		s.words[i] = w
		count += bits.OnesCount64(w)
	}
	s.count = count
	return nil
}

// AccumulateCounts adds delta to counts[i] for every set bit i. It is
// the word-parallel workhorse behind rarest-first frequency
// maintenance: a crash subtracts exactly the victim's holdings
// (delta = -1), a rejoin adds them back (delta = +1), and a full
// recount is one AccumulateCounts per alive node instead of n·k Has
// calls. counts must have at least Cap() entries.
func (s *Set) AccumulateCounts(counts []int, delta int) {
	if len(counts) < s.n {
		panic("bitset: AccumulateCounts slice shorter than capacity")
	}
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			counts[base+bits.TrailingZeros64(w)] += delta
			w &= w - 1
		}
	}
}

// Iter calls fn for each set bit in ascending order until fn returns false.
func (s *Set) Iter(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the set bits in ascending order. Intended for tests and
// trace output, not hot paths.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.count)
	s.Iter(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Max returns the highest set bit, or -1 if the set is empty. The
// Binomial Pipeline's "transmit the highest-index block you have" rule
// makes this a hot call.
func (s *Set) Max() int {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Min returns the lowest set bit, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// MaxDiff returns the highest bit of s \ o, or -1 if s ⊆ o.
func (s *Set) MaxDiff(o *Set) int {
	s.sameCap(o)
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if d := s.words[wi] &^ o.words[wi]; d != 0 {
			return wi*wordBits + wordBits - 1 - bits.LeadingZeros64(d)
		}
	}
	return -1
}

// FirstDiff returns the lowest bit of s \ o, or -1 if s ⊆ o.
func (s *Set) FirstDiff(o *Set) int {
	s.sameCap(o)
	for wi, w := range s.words {
		if d := w &^ o.words[wi]; d != 0 {
			return wi*wordBits + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// Equal reports whether s and o hold exactly the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n || s.count != o.count {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the set as a compact bit string (LSB first), for traces.
func (s *Set) String() string {
	var b strings.Builder
	b.Grow(s.n + 2)
	b.WriteByte('[')
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte(']')
	return b.String()
}
