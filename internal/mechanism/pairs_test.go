package mechanism

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/checkpoint"
	"barterdist/internal/simulate"
	"barterdist/internal/trace"
	"barterdist/internal/xrand"
)

// TestLedgerMatchesMapReference drives a Ledger and a map[uint64]int
// reference through the same random Record/Unrecord sequence — server
// pairs included — across a dozen table growths, and requires
// identical balances, CanSend answers, MaxAbsNet, and a snapshot that
// restores to the same bytes.
func TestLedgerMatchesMapReference(t *testing.T) {
	const ids, ops = 1500, 200000
	l, err := NewLedger(2)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[uint64]int)
	refNet := func(u, v int32) int {
		key, swapped := pairKey(u, v)
		if swapped {
			return -ref[key]
		}
		return ref[key]
	}
	rng := xrand.New(20261017)
	grows := 0
	for i := 0; i < ops; i++ {
		u, v := int32(rng.Intn(ids)), int32(rng.Intn(ids-1))
		if v >= u {
			v++
		}
		d := 1
		if rng.Intn(3) == 0 {
			d = -1
		}
		if got, want := l.CanSend(u, v), u == 0 || v == 0 || refNet(u, v)+1 <= 2; got != want {
			t.Fatalf("op %d: CanSend(%d, %d) = %v, reference %v", i, u, v, got, want)
		}
		slots := len(l.pairs.slots)
		if d > 0 {
			l.Record(u, v)
		} else {
			l.Unrecord(u, v)
		}
		if len(l.pairs.slots) != slots {
			grows++
		}
		if u != 0 && v != 0 {
			key, swapped := pairKey(u, v)
			if swapped {
				ref[key] -= d
			} else {
				ref[key] += d
			}
		}
		if got, want := l.Net(u, v), refNet(u, v); got != want {
			t.Fatalf("op %d: Net(%d, %d) = %d, reference %d", i, u, v, got, want)
		}
	}
	if grows < 12 {
		t.Fatalf("the sequence crossed %d grow boundaries, want >= 12", grows)
	}
	maxAbs := 0
	for key, n := range ref {
		u, v := int32(key>>32), int32(uint32(key))
		if got := l.Net(u, v); got != n {
			t.Fatalf("Net(%d, %d) = %d, reference %d", u, v, got, n)
		}
		if got := l.Net(v, u); got != -n {
			t.Fatalf("Net(%d, %d) = %d, reference %d", v, u, got, -n)
		}
		if n < 0 {
			n = -n
		}
		maxAbs = max(maxAbs, n)
	}
	if got := l.MaxAbsNet(); got != maxAbs {
		t.Fatalf("MaxAbsNet = %d, reference %d", got, maxAbs)
	}
	if l.pairs.count*maxLoadDen > len(l.pairs.slots)*maxLoadNum {
		t.Fatalf("%d pairs in %d slots exceeds the load cap", l.pairs.count, len(l.pairs.slots))
	}

	enc := checkpoint.NewEncoder(0)
	l.Snapshot(enc)
	restored, _ := NewLedger(2)
	if err := restored.RestoreState(checkpoint.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	again := checkpoint.NewEncoder(0)
	restored.Snapshot(again)
	if string(again.Bytes()) != string(enc.Bytes()) {
		t.Fatal("restored ledger snapshots to different bytes")
	}
}

// TestPairTableReserve checks that after reserve(n) the table takes n
// new pairs without growing, so the slots a credit walk records during
// a tick stay put, and that a table already large enough is left alone.
func TestPairTableReserve(t *testing.T) {
	var p pairTable
	for _, n := range []int{1, 14, 15, 100, 1000, 5000} {
		p.reserve(n)
		slots := len(p.slots)
		for i := 0; i < n; i++ {
			p.book(int32(1+p.count), int32(2+p.count), 1)
		}
		if len(p.slots) != slots {
			t.Fatalf("after reserve(%d), %d new pairs grew the table from %d to %d slots", n, n, slots, len(p.slots))
		}
		if p.count*maxLoadDen > len(p.slots)*maxLoadNum {
			t.Fatalf("%d pairs in %d slots exceeds the load cap", p.count, len(p.slots))
		}
	}
	slots := len(p.slots)
	p.reserve(0)
	if len(p.slots) != slots {
		t.Fatalf("reserve(0) resized the table from %d to %d slots", slots, len(p.slots))
	}
}

func TestLedgerMaxAbsNet(t *testing.T) {
	l, err := NewLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.MaxAbsNet(); got != 0 {
		t.Fatalf("empty ledger MaxAbsNet = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		l.Record(5, 2) // the larger id sends: a negative stored balance
	}
	l.Record(7, 9)
	l.Record(0, 9) // server: exempt
	if got := l.MaxAbsNet(); got != 3 {
		t.Fatalf("MaxAbsNet = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		l.Unrecord(5, 2)
	}
	if got := l.MaxAbsNet(); got != 1 {
		t.Fatalf("after clawback MaxAbsNet = %d, want 1", got)
	}
}

// TestLedgerSnapshotBytes pins the checkpoint encoding of a fixed
// ledger history: the credit limit, then the non-zero balances in
// ascending pair-key order. A change here breaks resuming from
// checkpoints written before it.
func TestLedgerSnapshotBytes(t *testing.T) {
	l, err := NewLedger(2)
	if err != nil {
		t.Fatal(err)
	}
	l.Record(1, 2)
	l.Record(1, 2)
	l.Record(5, 3)
	l.Record(3, 5) // nets to zero: skipped
	l.Record(9, 4)
	l.Record(0, 6) // server: exempt
	l.Unrecord(8, 7)
	l.Record(1000000, 999999)
	enc := checkpoint.NewEncoder(0)
	l.Snapshot(enc)
	const want = "0200000000000000" + "0400000000000000" +
		"0200000001000000" + "0200000000000000" +
		"0900000004000000" + "ffffffffffffffff" +
		"0800000007000000" + "0100000000000000" +
		"40420f003f420f00" + "ffffffffffffffff"
	if got := hex.EncodeToString(enc.Bytes()); got != want {
		t.Fatalf("snapshot bytes\n got %s\nwant %s", got, want)
	}
}

func TestLedgerRestoreRejectsCorruption(t *testing.T) {
	encode := func(limit, n int, entries ...uint64) []byte {
		enc := checkpoint.NewEncoder(0)
		enc.Int(limit)
		enc.Int(n)
		for _, e := range entries {
			enc.U64(e)
		}
		return enc.Bytes()
	}
	const neg = ^uint64(0) // -1 as an encoded Int
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"limit mismatch", encode(3, 0)},
		{"negative count", encode(2, -1)},
		{"truncated", encode(2, 2, 1<<32|2, 1)},
		{"keys not ascending", encode(2, 2, 1<<32|3, 1, 1<<32|2, neg)},
		{"duplicate key", encode(2, 2, 1<<32|2, 1, 1<<32|2, 1)},
		{"zero balance", encode(2, 1, 1<<32|2, 0)},
		{"key 0", encode(2, 1, 0, 1)},
		{"key without a client id in its low word", encode(2, 1, 5<<32, 1)},
		{"balance out of range", encode(2, 1, 1<<32|2, 1<<31)},
	} {
		l, err := NewLedger(2)
		if err != nil {
			t.Fatal(err)
		}
		err = l.RestoreState(checkpoint.NewDecoder(tc.payload))
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: RestoreState = %v, want a corruption error", tc.name, err)
		}
	}
}

// TestCreditWalkMatchesMapReference checks creditWalk's slot-indexed
// touched list against a map-backed walk that looks every pair up
// again at the tick end. The first tick books the pair 1->2 twice and
// then enough new pairs to need several table doublings, which the walk
// reserves before the tick. Random ticks of up to 300 transfers over 60
// nodes, the server included, follow. Every limit must give the same
// verdict text, and the walk the same peak.
func TestCreditWalkMatchesMapReference(t *testing.T) {
	first := []simulate.Transfer{{From: 1, To: 2}, {From: 1, To: 2}}
	for u := int32(3); len(first) < 200; u++ {
		first = append(first, simulate.Transfer{From: u, To: u + 1})
	}
	ticks := [][]simulate.Transfer{first}
	rng := xrand.New(21)
	for len(ticks) < 40 {
		tick := make([]simulate.Transfer, 1+rng.Intn(300))
		for j := range tick {
			tick[j] = simulate.Transfer{From: int32(rng.Intn(60)), To: int32(rng.Intn(60))}
		}
		ticks = append(ticks, tick)
	}
	log := trace.FromTicks(ticks, nil, nil, false)

	refWalk := func(limit int) (string, int) {
		o, peak := mapCreditWalk(ticks, nil, limit)
		if o == nil {
			return "", peak
		}
		return o.violation(fmt.Sprintf("net transfer %d exceeds credit limit %d", o.net, limit)).Error(), peak
	}

	_, peak := refWalk(math.MaxInt)
	if got := MinimalCreditLimit(log.Cursor()); got != peak {
		t.Fatalf("MinimalCreditLimit = %d, reference %d", got, peak)
	}
	if err := VerifyCreditLimited(log.Cursor(), 1); err == nil || err.Error() != "mechanism: tick 1, transfer 1->2: net transfer 2 exceeds credit limit 1" {
		t.Fatalf("s=1: %v, want the first tick's pair 1->2", err)
	}
	for s := 1; s <= peak; s++ {
		want, _ := refWalk(s)
		got := ""
		if err := VerifyCreditLimited(log.Cursor(), s); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Fatalf("s=%d: %q, reference %q", s, got, want)
		}
	}

	// Span cuts: a kinded trace whose ticks cross and meet frame
	// boundaries, with drops at the first and last transfer of frames
	// and ticks, read in the full, released and free-rider views.
	f := newSpanFixture(spanRandom)
	freeRiders := make([]bool, 60)
	for _, v := range []int{3, 7, 11, 42} {
		freeRiders[v] = true
	}
	for _, tc := range []struct {
		name   string
		cursor func(*trace.Log) *trace.Cursor
		view   [][]simulate.Transfer
		mask   []bool
	}{
		{"full", (*trace.Log).Cursor, f.view(keepAll), nil},
		{"released", (*trace.Log).ReleasedCursor, f.view(keepReleased), nil},
		{"free-rider", (*trace.Log).Cursor, f.view(keepDelivered), freeRiders},
	} {
		_, peak := mapCreditWalk(tc.view, tc.mask, math.MaxInt)
		if _, got := creditWalk(tc.cursor(f.log), tc.mask, math.MaxInt, false); got != peak {
			t.Fatalf("%s view: peak %d, reference %d", tc.name, got, peak)
		}
		if peak < 3 {
			t.Fatalf("%s view: peak %d leaves no limit to sweep", tc.name, peak)
		}
		for s := 1; s <= peak; s++ {
			want, _ := mapCreditWalk(tc.view, tc.mask, s)
			got, _ := creditWalk(tc.cursor(f.log), tc.mask, s, false)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s view, s=%d: first pair over the limit %+v, reference %+v", tc.name, s, got, want)
			}
			if tc.mask != nil {
				continue
			}
			// The one-walk form: the same verdict text, and the peak.
			wantErr := ""
			if want != nil {
				wantErr = want.violation(fmt.Sprintf("net transfer %d exceeds credit limit %d", want.net, s)).Error()
			}
			minimal, err := VerifyCreditLimitedMinimal(tc.cursor(f.log), s)
			if fmt.Sprint(err) != fmt.Sprint(VerifyCreditLimited(tc.cursor(f.log), s)) || errString(err) != wantErr || minimal != peak {
				t.Fatalf("%s view, s=%d: one walk gives (%d, %v), want (%d, %q)", tc.name, s, minimal, err, peak, wantErr)
			}
		}
	}
	res := &simulate.Result{Trace: f.log, Strategies: make([]adversary.Strategy, 60)}
	for v, fr := range freeRiders {
		if fr {
			res.Strategies[v] = adversary.FreeRider
		}
	}
	want, _ := mapCreditWalk(f.view(keepDelivered), freeRiders, 1)
	if err := VerifyStarvation(res, 1); want == nil || errString(err) != want.violation(fmt.Sprintf("free-rider %d received %d net blocks from client %d, above credit limit %d — barter failed to starve it", want.to, want.net, want.from, 1)).Error() {
		t.Fatalf("VerifyStarvation: %v, reference %+v", err, want)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// mapCreditWalk is creditWalk's reference over nested ticks: balances
// in a map, and per tick the touched keys in booking order, each looked
// up again at the tick end. mask, when non-nil, books only transfers
// with a flagged endpoint.
func mapCreditWalk(ticks [][]simulate.Transfer, mask []bool, limit int) (*overLimit, int) {
	net := make(map[uint64]int)
	peak := 0
	for ti, tick := range ticks {
		var touched []uint64
		for _, tr := range tick {
			if tr.From == 0 || tr.To == 0 {
				continue
			}
			if mask != nil && !flagged(mask, tr.From) && !flagged(mask, tr.To) {
				continue
			}
			key, swapped := pairKey(tr.From, tr.To)
			if swapped {
				net[key]--
			} else {
				net[key]++
			}
			touched = append(touched, key)
		}
		for _, key := range touched {
			n, u, v := net[key], int32(key>>32), int32(uint32(key))
			if n < 0 {
				n, u, v = -n, v, u
			}
			if n > limit {
				return &overLimit{tick: ti + 1, from: u, to: v, net: n}, peak
			}
			peak = max(peak, n)
		}
	}
	return nil, peak
}
