package mechanism

import (
	"fmt"
	"math/rand"
	"testing"

	"barterdist/internal/simulate"
	"barterdist/internal/trace"
)

// spanFixture is a kinded trace laid out so that the cursor's span cuts
// land wherever a walk can go wrong, kept with its nested form for the
// reference walks. With 64Ki-transfer frames:
//
//   - tick 16 covers [64000, 68000), across the first frame boundary;
//   - tick 32 ends and tick 33 starts at the second, 131072;
//   - tick 34 holds one transfer and tick 35 none;
//   - drops sit at the first and last transfer of every frame and of
//     ticks 0, 1, 16, 32, 33, 34 and the last tick, and at random
//     positions between, of every kind.
type spanFixture struct {
	ticks [][]simulate.Transfer
	drops [][]int
	kinds [][]uint8
	log   *trace.Log
}

// spanDrops are the fixture's drops at frame and tick edges, by global
// transfer index, with their kinds.
var spanDrops = []struct {
	at   int
	kind uint8
}{
	{0, trace.KindRefused}, {3999, trace.KindFault}, {4000, trace.KindGarbage},
	{64000, trace.KindFaultCorrupt}, {65535, trace.KindStalled}, {65536, trace.KindFault},
	{67999, trace.KindRefused}, {128000, trace.KindFault}, {131071, trace.KindGarbage},
	{131072, trace.KindRefused}, {133071, trace.KindFault}, {133072, trace.KindStalled},
	{133073, trace.KindRefused}, {133572, trace.KindGarbage},
}

// spanTickSizes is the fixture's tick geometry; see spanFixture.
func spanTickSizes() []int {
	var sizes []int
	for range 32 {
		sizes = append(sizes, 4000)
	}
	return append(sizes, 3072, 2000, 1, 0, 500)
}

// newSpanFixture fills the fixture's geometry with gen's transfers, one
// tick at a time.
func newSpanFixture(gen func(rng *rand.Rand, n int) []simulate.Transfer) *spanFixture {
	rng := rand.New(rand.NewSource(22))
	f := &spanFixture{}
	edge := make(map[int]uint8)
	for _, d := range spanDrops {
		edge[d.at] = d.kind
	}
	at := 0
	for _, n := range spanTickSizes() {
		f.ticks = append(f.ticks, gen(rng, n))
		var drops []int
		var kinds []uint8
		for j := range n {
			kind, ok := edge[at+j]
			if !ok && rng.Intn(100) == 0 {
				kind, ok = uint8(rng.Intn(trace.NumKinds)), true
			}
			if ok {
				drops = append(drops, j)
				kinds = append(kinds, kind)
			}
		}
		f.drops = append(f.drops, drops)
		f.kinds = append(f.kinds, kinds)
		at += n
	}
	if at != spanDrops[len(spanDrops)-1].at+1 {
		panic(fmt.Sprintf("span fixture holds %d transfers, its last drop is at %d", at, spanDrops[len(spanDrops)-1].at))
	}
	f.log = trace.FromTicks(f.ticks, f.drops, f.kinds, true)
	return f
}

// spanRandom is one-way traffic among 60 nodes, the server included.
func spanRandom(rng *rand.Rand, n int) []simulate.Transfer {
	tick := make([]simulate.Transfer, n)
	for j := range tick {
		tick[j] = simulate.Transfer{From: int32(rng.Intn(60)), To: int32(rng.Intn(60)), Block: int32(rng.Intn(64))}
	}
	return tick
}

// spanExchanges is strict barter: client pairs that swap a block each
// way, their two halves at random places in the tick, and an odd
// transfer from the server.
func spanExchanges(rng *rand.Rand, n int) []simulate.Transfer {
	tick := make([]simulate.Transfer, 0, n)
	if n%2 == 1 {
		tick = append(tick, simulate.Transfer{From: 0, To: int32(1 + rng.Intn(59))})
	}
	for len(tick) < n {
		u := int32(1 + rng.Intn(59))
		v := int32(1 + rng.Intn(58))
		if v >= u {
			v++
		}
		tick = append(tick, simulate.Transfer{From: u, To: v}, simulate.Transfer{From: v, To: u})
	}
	rng.Shuffle(len(tick), func(i, j int) { tick[i], tick[j] = tick[j], tick[i] })
	return tick
}

// The views a cursor reads, as filters on one transfer's drop state.
func keepAll(bool, uint8) bool                 { return true }
func keepReleased(dropped bool, k uint8) bool  { return !dropped || k < trace.KindRefused }
func keepDelivered(dropped bool, _ uint8) bool { return !dropped }

// view returns, per tick, the transfers keep admits.
func (f *spanFixture) view(keep func(dropped bool, kind uint8) bool) [][]simulate.Transfer {
	out := make([][]simulate.Transfer, len(f.ticks))
	for t, tick := range f.ticks {
		out[t] = []simulate.Transfer{}
		d := 0
		for j, tr := range tick {
			dropped, kind := false, trace.KindFault
			if d < len(f.drops[t]) && f.drops[t][d] == j {
				dropped, kind = true, f.kinds[t][d]
				d++
			}
			if keep(dropped, kind) {
				out[t] = append(out[t], tr)
			}
		}
	}
	return out
}

// mapStrictBarter is VerifyStrictBarter's reference over nested ticks:
// per tick, a count per direction and the directions in order of first
// appearance; the first direction whose reverse count differs fails.
func mapStrictBarter(ticks [][]simulate.Transfer) error {
	for ti, tick := range ticks {
		type dir struct{ u, v int32 }
		count := make(map[dir]int)
		var order []dir
		for _, tr := range tick {
			if tr.From == 0 || tr.To == 0 {
				continue
			}
			d := dir{tr.From, tr.To}
			if count[d] == 0 {
				order = append(order, d)
			}
			count[d]++
		}
		for _, d := range order {
			if rev := count[dir{d.v, d.u}]; rev != count[d] {
				return &Violation{Tick: ti + 1, From: d.u, To: d.v,
					Reason: fmt.Sprintf("%d transfer(s) forward but %d in return (strict barter requires a simultaneous exchange)", count[d], rev)}
			}
		}
	}
	return nil
}

// TestVerifyStrictBarterSpans runs the strict verifier over the span
// fixture filled with exchanges. The full view is compliant. In the
// released view, a drop of the sender's own making removes one half of
// an exchange; each edge drop in turn is made the one such drop, so the
// verdict lands on each frame and tick edge, and must equal the map
// reference's text.
func TestVerifyStrictBarterSpans(t *testing.T) {
	f := newSpanFixture(spanExchanges)
	if err := VerifyStrictBarter(f.log.Cursor()); err != nil {
		t.Fatalf("full view of an exchange-only trace: %v", err)
	}
	for _, edge := range spanDrops {
		for t := range f.kinds {
			for d := range f.kinds[t] {
				f.kinds[t][d] = trace.KindFault
			}
		}
		at, tick := edge.at, 0
		for ; at >= len(f.ticks[tick]); tick++ {
			at -= len(f.ticks[tick])
		}
		for d, j := range f.drops[tick] {
			if j == at {
				f.kinds[tick][d] = trace.KindRefused
			}
		}
		log := trace.FromTicks(f.ticks, f.drops, f.kinds, true)
		want := mapStrictBarter(f.view(keepReleased))
		if tr := f.ticks[tick][at]; want == nil && tr.From != 0 {
			t.Fatalf("drop at %d: the reference finds no violation", edge.at)
		}
		if got := VerifyStrictBarter(log.ReleasedCursor()); errString(got) != errString(want) {
			t.Fatalf("drop at %d: %v, reference %v", edge.at, got, want)
		}
	}
}

// TestVerifyTriangularSpans runs the triangular verifier over the span
// fixture's one-way traffic, in the full and released views, at every
// limit up to the first that passes. The reference is the verifier
// over a log rebuilt from the view's nested ticks with no drops, whose
// frames cut the ticks elsewhere.
func TestVerifyTriangularSpans(t *testing.T) {
	f := newSpanFixture(spanRandom)
	for _, tc := range []struct {
		name   string
		cursor func(*trace.Log) *trace.Cursor
		keep   func(bool, uint8) bool
	}{
		{"full", (*trace.Log).Cursor, keepAll},
		{"released", (*trace.Log).ReleasedCursor, keepReleased},
	} {
		rebuilt := trace.FromTicks(f.view(tc.keep), nil, nil, false)
		ticks := map[int]bool{}
		for s := 1; ; s++ {
			want := VerifyTriangular(rebuilt.Cursor(), s)
			if got := VerifyTriangular(tc.cursor(f.log), s); errString(got) != errString(want) {
				t.Fatalf("%s view, s=%d: %v, reference %v", tc.name, s, got, want)
			}
			if want == nil {
				break
			}
			ticks[want.(*Violation).Tick] = true
		}
		if len(ticks) < 3 {
			t.Fatalf("%s view: violations at %d distinct ticks, want several", tc.name, len(ticks))
		}
	}
}
