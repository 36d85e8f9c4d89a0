package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomNested builds a random nested trace: per-tick transfer lists
// with ascending drop subsets and kinds.
func randomNested(rng *rand.Rand, ticks int, kinded bool) ([][]Transfer, [][]int, [][]uint8) {
	trs := make([][]Transfer, ticks)
	drops := make([][]int, ticks)
	var kinds [][]uint8
	if kinded {
		kinds = make([][]uint8, ticks)
	}
	for t := range trs {
		n := rng.Intn(7) // empty ticks included
		for i := 0; i < n; i++ {
			trs[t] = append(trs[t], Transfer{
				From:  int32(rng.Intn(50)),
				To:    int32(rng.Intn(50)),
				Block: int32(rng.Intn(20)),
			})
			if rng.Intn(3) == 0 {
				drops[t] = append(drops[t], i)
				if kinded {
					kinds[t] = append(kinds[t], uint8(rng.Intn(NumKinds)))
				}
			}
		}
	}
	return trs, drops, kinds
}

// eachTransfer reads the rest of c's current tick span by span and
// calls fn with every transfer, its tick-local index and its span.
func eachTransfer(c *Cursor, fn func(i int, tr Transfer, s Span)) {
	for c.NextSpan() {
		s := c.Span()
		for j := range s.From {
			fn(s.Index+j, Transfer{From: int32(s.From[j]), To: int32(s.To[j]), Block: int32(s.Block[j])}, s)
		}
	}
}

// flatten returns every transfer of l in trace order.
func flatten(l *Log) []Transfer {
	var out []Transfer
	for _, ts := range l.Materialize() {
		out = append(out, ts...)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for _, kinded := range []bool{false, true} {
		t.Run(fmt.Sprintf("kinded=%v", kinded), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 50; trial++ {
				trs, drops, kinds := randomNested(rng, 1+rng.Intn(10), kinded)
				l := FromTicks(trs, drops, kinds, kinded)
				if l.Ticks() != len(trs) {
					t.Fatalf("Ticks = %d, want %d", l.Ticks(), len(trs))
				}
				got := l.Materialize()
				for ti := range trs {
					want := trs[ti]
					if len(want) == 0 {
						want = nil
					}
					if !reflect.DeepEqual(got[ti], want) {
						t.Fatalf("tick %d transfers = %v, want %v", ti, got[ti], trs[ti])
					}
				}
				gd, gk := l.MaterializeDrops()
				for ti := range trs {
					want := drops[ti]
					if len(want) == 0 {
						want = nil
					}
					if !reflect.DeepEqual(gd[ti], want) {
						t.Fatalf("tick %d drops = %v, want %v", ti, gd[ti], drops[ti])
					}
					if kinded {
						wk := kinds[ti]
						if len(wk) == 0 {
							wk = nil
						}
						if !reflect.DeepEqual(gk[ti], wk) {
							t.Fatalf("tick %d kinds = %v, want %v", ti, gk[ti], kinds[ti])
						}
					}
				}
			}
		})
	}
}

// TestCursorAgainstNested drives the cursor over random logs and
// checks every yielded (tick, index, transfer, dropped, kind) tuple
// against the nested representation — the oracle for both the full
// and the released view.
func TestCursorAgainstNested(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		kinded := trial%2 == 1
		trs, drops, kinds := randomNested(rng, 1+rng.Intn(8), kinded)
		l := FromTicks(trs, drops, kinds, kinded)

		for _, released := range []bool{false, true} {
			var c *Cursor
			if released {
				c = l.ReleasedCursor()
			} else {
				c = l.Cursor()
			}
			for ti := 0; c.NextTick(); ti++ {
				if c.Tick() != ti+1 {
					t.Fatalf("Tick() = %d, want %d", c.Tick(), ti+1)
				}
				if c.TickLen() != len(trs[ti]) {
					t.Fatalf("tick %d TickLen = %d, want %d", ti, c.TickLen(), len(trs[ti]))
				}
				dropAt := map[int]uint8{}
				for j, d := range drops[ti] {
					k := KindFault
					if kinded {
						k = kinds[ti][j]
					}
					dropAt[d] = k
				}
				visited := 0
				eachTransfer(c, func(i int, tr Transfer, s Span) {
					if tr != trs[ti][i] {
						t.Fatalf("tick %d idx %d: transfer %v, want %v", ti, i, tr, trs[ti][i])
					}
					k, dropped := dropAt[i]
					if released && dropped && k >= KindRefused {
						t.Fatalf("tick %d idx %d: released cursor yielded an adversary drop (kind %d)", ti, i, k)
					}
					if s.Dropped != dropped {
						t.Fatalf("tick %d idx %d: Dropped = %v, want %v", ti, i, s.Dropped, dropped)
					}
					if dropped && kinded && s.Kind != k {
						t.Fatalf("tick %d idx %d: Kind = %d, want %d", ti, i, s.Kind, k)
					}
					visited++
				})
				want := len(trs[ti])
				if released {
					for _, k := range dropAt {
						if k >= KindRefused {
							want--
						}
					}
				}
				if visited != want {
					t.Fatalf("tick %d: visited %d transfers, want %d (released=%v)", ti, visited, want, released)
				}
			}
		}
	}
}

// TestCursorSkipTick verifies NextTick discards unvisited transfers
// and resynchronizes the drop cursor.
func TestCursorSkipTick(t *testing.T) {
	trs := [][]Transfer{
		{{From: 1, To: 2, Block: 0}, {From: 2, To: 1, Block: 1}},
		{{From: 3, To: 4, Block: 2}},
	}
	drops := [][]int{{1}, {0}}
	l := FromTicks(trs, drops, nil, false)
	c := l.Cursor()
	if !c.NextTick() {
		t.Fatal("no first tick")
	}
	// Skip tick 1 without visiting its transfers.
	if !c.NextTick() {
		t.Fatal("no second tick")
	}
	if !c.NextSpan() {
		t.Fatal("no transfer in tick 2")
	}
	s := c.Span()
	if got := (Transfer{From: int32(s.From[0]), To: int32(s.To[0]), Block: int32(s.Block[0])}); got != trs[1][0] {
		t.Fatalf("transfer = %v, want %v", got, trs[1][0])
	}
	if !s.Dropped {
		t.Fatal("tick 2's only transfer is recorded dropped; cursor says delivered")
	}
}

// TestNegativeFieldsRoundTrip pins the int32<->uint32 bijection: audit
// tests doctor traces with negative node ids, which must survive the
// columnar encoding so the auditors can reject them.
func TestNegativeFieldsRoundTrip(t *testing.T) {
	want := []Transfer{{From: -1, To: -7, Block: -3}, {From: -100, To: 5, Block: -2}}
	l := FromTicks([][]Transfer{want}, nil, nil, false)
	if got := flatten(l); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %v, want %v", got, want)
	}
}

// TestReserveZeroAllocAppend proves steady-state appends after Reserve
// allocate nothing — the contract the zero-alloc tick core builds on.
func TestReserveZeroAllocAppend(t *testing.T) {
	l := New(true)
	l.Reserve(4096, 256, 512)
	ts := []Transfer{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	idx := []int32{1}
	kinds := []uint8{KindRefused}
	allocs := testing.AllocsPerRun(100, func() {
		l.AppendTick(ts, idx, kinds)
	})
	if allocs != 0 {
		t.Fatalf("AppendTick allocates %.1f times per call after Reserve; want 0", allocs)
	}
}

// TestReserveGrowPath proves Reserve's counts are hints, not caps: an
// open-system run that undershoots its estimate (the cumulative
// arrival stream has no (n-1)·k bound) keeps appending correctly past
// the reservation, and a second mid-stream Reserve is additive from
// the current length and restores the zero-alloc steady state.
func TestReserveGrowPath(t *testing.T) {
	l := New(false)
	l.Reserve(4, 2, 0)
	var want []Transfer
	tick := func(ts ...Transfer) {
		l.AppendTick(ts, nil, nil)
		want = append(want, ts...)
	}
	// Blow straight past the 4-transfer / 2-tick reservation.
	for i := int32(0); i < 8; i++ {
		tick(Transfer{From: 0, To: i + 1, Block: i},
			Transfer{From: i + 1, To: 0, Block: i})
	}
	if l.Ticks() != 8 || l.Len() != 16 {
		t.Fatalf("past-reservation log holds %d ticks / %d transfers, want 8/16", l.Ticks(), l.Len())
	}
	if got := flatten(l); !reflect.DeepEqual(got, want) {
		t.Fatalf("transfers after grow = %v, want %v", got, want)
	}
	// Re-reserving mid-stream preserves content and is zero-alloc again.
	l.Reserve(2048, 128, 0)
	if l.Ticks() != 8 || l.Len() != 16 {
		t.Fatalf("mid-stream Reserve changed the log: %d ticks / %d transfers", l.Ticks(), l.Len())
	}
	ts := []Transfer{{9, 10, 11}}
	allocs := testing.AllocsPerRun(100, func() { l.AppendTick(ts, nil, nil) })
	if allocs != 0 {
		t.Fatalf("AppendTick allocates %.1f times per call after mid-stream Reserve; want 0", allocs)
	}
}

func TestAppendTickPanicsOnBadDrops(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	ts := []Transfer{{1, 2, 3}, {2, 3, 4}}
	assertPanics("out of range", func() {
		New(false).AppendTick(ts, []int32{2}, nil)
	})
	assertPanics("descending", func() {
		New(false).AppendTick(ts, []int32{1, 0}, nil)
	})
	assertPanics("kind count mismatch", func() {
		New(true).AppendTick(ts, []int32{0}, nil)
	})
}

func TestMemSize(t *testing.T) {
	l := New(false)
	if l.MemSize() != 0 {
		t.Fatalf("empty log MemSize = %d", l.MemSize())
	}
	l.AppendTick([]Transfer{{1, 2, 3}}, nil, nil)
	if l.MemSize() <= 0 {
		t.Fatalf("non-empty log MemSize = %d", l.MemSize())
	}
}
