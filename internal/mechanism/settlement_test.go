package mechanism

import (
	"fmt"
	"testing"
)

// settleTick runs one tick of transfers through st and returns the
// charges in order.
func settleTick(st *Settlement, tick [][2]int32) string {
	st.Reset()
	for _, e := range tick {
		st.Add(e[0], e[1])
	}
	var got []string
	st.Settle(func(u, v int32, c int) { got = append(got, fmt.Sprintf("%d->%d:%d", u, v, c)) })
	return fmt.Sprint(got)
}

// TestSettlementTriesThirdsInSignedOrder: when two triangles share the
// edge 1->2, the third party with the lower id settles, and ids compare
// as signed integers, so a doctored trace's negative id comes first.
func TestSettlementTriesThirdsInSignedOrder(t *testing.T) {
	var st Settlement
	tick := [][2]int32{{1, 2}, {2, 4}, {2, -3}, {-3, 1}, {4, 1}}
	if got, want := settleTick(&st, tick), "[2->4:1 4->1:1]"; got != want {
		t.Errorf("charges %s, want %s (the triangle through -3 settles)", got, want)
	}
	tick = [][2]int32{{1, 2}, {2, 4}, {2, 3}, {3, 1}, {4, 1}}
	if got, want := settleTick(&st, tick), "[2->4:1 4->1:1]"; got != want {
		t.Errorf("charges %s, want %s (the triangle through 3 settles)", got, want)
	}
}

// TestSettlementWarmTickAllocatesNothing: once a Settlement has seen a
// tick, settling another tick of the same shape reuses its storage.
// Reset used to delete every sender's out-list, so each tick
// reallocated one list per sender.
func TestSettlementWarmTickAllocatesNothing(t *testing.T) {
	var tick [][2]int32
	for u := int32(1); u <= 49; u++ {
		tick = append(tick, [2]int32{u, u%49 + 1}, [2]int32{u, (u+6)%49 + 1})
		if u%3 == 0 {
			tick = append(tick, [2]int32{u, u - 1})
		}
	}
	charged := 0
	charge := func(_, _ int32, c int) { charged += c }
	var st Settlement
	run := func() {
		st.Reset()
		for _, e := range tick {
			st.Add(e[0], e[1])
		}
		st.Settle(charge)
	}
	run()
	if charged == 0 || charged == len(tick) {
		t.Fatalf("tick charged %d of %d transfers; want some cycles and some charges", charged, len(tick))
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a warm tick allocates %.0f times, want 0", allocs)
	}
}
