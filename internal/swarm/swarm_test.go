package swarm

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/trace"
)

func mustFault(t *testing.T, wipe bool) *fault.Plan {
	t.Helper()
	p, err := fault.NewPlan(fault.Options{Seed: 1, CrashRate: 0.5, RejoinDelay: 2, RejoinLosesBlocks: wipe, LossRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustAdv(t *testing.T, n int) *adversary.Plan {
	t.Helper()
	p, err := adversary.NewPlan(n, adversary.Options{Seed: 2, FreeRiderFrac: 0.25, CorrupterFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustArrivals(t *testing.T, opts arrival.Options) *arrival.Plan {
	t.Helper()
	p, err := arrival.NewPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fill delivers every block to v.
func fill(c *Core, v int) {
	for b := 0; b < c.K(); b++ {
		c.Deliver(v, b)
	}
}

// TestPopulationCounters drives crashes, kept-cache and wiped rejoins,
// and completions through the counters the stopping rule reads, and
// checks them against a recount after every step.
func TestPopulationCounters(t *testing.T) {
	c, err := New(5, 3, mustFault(t, false), nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if useful, done := c.Deliver(0, 1); useful || done {
		t.Fatal("the server gained a block it already holds")
	}
	fill(c, 1)
	if c.ClientsComplete() != 1 || c.Tally.Useful != 3 {
		t.Fatalf("complete=%d useful=%d, want 1 and 3", c.ClientsComplete(), c.Tally.Useful)
	}
	if _, rejoins := c.Crash(1, 1); !rejoins {
		t.Fatal("plan with a rejoin delay did not schedule a rejoin")
	}
	if c.Alive(1) || c.ClientsComplete() != 0 || c.AliveClients() != 3 || c.AllClientsComplete() {
		t.Fatalf("after crash: alive=%v complete=%d present=%d", c.Alive(1), c.ClientsComplete(), c.AliveClients())
	}
	c.Rejoin(1, 3, false)
	if c.ClientsComplete() != 1 || c.CountOf(1) != 3 {
		t.Fatal("a kept-cache rejoin lost its completed file")
	}
	c.Crash(1, 4)
	c.Rejoin(1, 6, true)
	if c.CountOf(1) != 0 || c.ClientsComplete() != 0 {
		t.Fatal("a wiped rejoin kept its blocks")
	}
	for v := 1; v < 5; v++ {
		fill(c, v)
	}
	if !c.AllClientsComplete() {
		t.Fatal("every client holds the file but the run is not complete")
	}
	if err := c.checkCounters(); err != nil {
		t.Fatal(err)
	}
	kinds := []fault.Kind{fault.Crash, fault.Rejoin, fault.Crash, fault.Rejoin}
	for i, ev := range c.Log {
		if ev.Kind != kinds[i] || ev.Node != 1 {
			t.Fatalf("log entry %d = %+v", i, ev)
		}
	}
}

// TestResolveFates: adversary verdicts map onto their trace kinds and
// count against honest receivers; only deliverable transfers reach the
// fault plan's dice.
func TestResolveFates(t *testing.T) {
	adv := mustAdv(t, 8)
	c, err := New(8, 4, mustFault(t, false), adv, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[adversary.Fate]uint8{
		adversary.Refused: trace.KindRefused,
		adversary.Stalled: trace.KindStalled,
		adversary.Garbage: trace.KindGarbage,
	}
	honest := 1
	for !c.Honest(honest) {
		honest++
	}
	for af, want := range cases {
		kind, dropped := c.Resolve(honest, af)
		if !dropped || kind != want || !ByAdversary(kind) || Corrupt(kind) != (af == adversary.Garbage) {
			t.Errorf("%v: kind %d dropped %v", af, kind, dropped)
		}
	}
	if c.Tally.HonestWasted != 3 {
		t.Errorf("HonestWasted = %d, want 3", c.Tally.HonestWasted)
	}
	faults := 0
	for i := 0; i < 200; i++ {
		if kind, dropped := c.Resolve(honest, adversary.Deliver); dropped {
			faults++
			if ByAdversary(kind) {
				t.Fatalf("a network drop was booked as the sender's strategy")
			}
		}
	}
	if faults == 0 || faults != c.Tally.Drops[trace.KindFault]+c.Tally.Drops[trace.KindFaultCorrupt] {
		t.Errorf("%d fault drops, tally %v", faults, c.Tally.Drops)
	}
	if c.Tally.HonestWasted != 3 {
		t.Errorf("network drops counted as adversary waste: %d", c.Tally.HonestWasted)
	}
}

// TestOpenBook walks a three-peer open swarm through arrivals, a
// selfish exit, a completion with linger, and the drain, and checks the
// sealed result satisfies the starvation identity.
func TestOpenBook(t *testing.T) {
	c, err := New(4, 4, nil, nil, mustArrivals(t, arrival.Options{Seed: 3, Rate: 1, Linger: 2}), true)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 4; v++ {
		if _, ok := c.NextArrival(); !ok {
			t.Fatalf("pool exhausted after %d arrivals", v-1)
		}
		if got := c.Admit(float64(v)); got != v {
			t.Fatalf("arrival got id %d, want %d", got, v)
		}
		// The exit draws are the plan's; pin the behaviors instead:
		// peer 1 is selfish at 2 blocks, the others cooperate.
		c.Open.exitAfter[v] = int32(map[int]int{1: 2}[v])
	}
	if _, ok := c.NextArrival(); ok || c.Drained() {
		t.Fatal("pool should be exhausted but the swarm not drained")
	}
	c.Deliver(1, 0)
	if _, ok := c.DepartAfter(1); ok {
		t.Fatal("peer 1 departs before its exit threshold")
	}
	c.Deliver(1, 1)
	if d, ok := c.DepartAfter(1); !ok || d != 0 {
		t.Fatalf("selfish peer 1: delay %v ok %v", d, ok)
	}
	if _, ok := c.DepartAfter(1); ok {
		t.Fatal("a departure was scheduled twice")
	}
	c.Depart(1, 5)
	for _, v := range []int{2, 3} {
		fill(c, v)
		if d, ok := c.DepartAfter(v); !ok || d != 2 {
			t.Fatalf("completed peer %d: delay %v ok %v, want the linger", v, d, ok)
		}
	}
	if r := c.Observe(6); r != arrival.ReasonNone || !c.Drained() {
		t.Fatalf("reason %v drained %v", r, c.Drained())
	}
	c.Depart(2, 8)
	o := c.Seal(arrival.VerdictDrained, arrival.ReasonNone, func(v int) float64 {
		return map[int]float64{2: 6, 3: 6}[v]
	}, true)
	want := arrival.OpenResult{
		Verdict: arrival.VerdictDrained, Arrived: 3, Departed: 2, Completed: 2, EarlyExits: 1,
		PeakOccupancy: 0, FinalOccupancy: 0, Occupancy: []int32{0},
		SojournMean: 3.5, SojournMax: 4, ArrivalTime: []float64{0, 1, 2, 3},
	}
	if !reflect.DeepEqual(*o, want) {
		t.Fatalf("sealed %+v\nwant   %+v", *o, want)
	}
	// An auditor's replay of the same log, with peers 2 and 3
	// completing at 6, re-derives the sealed counts.
	rp := NewReplay[float64](4, 4, true)
	for _, ev := range c.Log {
		if ev.Time > 6 && rp.Completion[2] == 0 {
			for b := 0; b < 4; b++ {
				rp.Deliver(2, b, 6)
				rp.Deliver(3, b, 6)
			}
		}
		if err := rp.Transition("t=", ev); err != nil {
			t.Fatal(err)
		}
		rp.Apply(ev)
	}
	if err := rp.CheckOpen(o); err != nil {
		t.Fatal(err)
	}
	// A completion lost from both the replay and the result still
	// fails the starvation identity.
	o.Completed = 1
	rp.Completion[3] = 0
	if err := rp.CheckOpen(o); err == nil || !strings.Contains(err.Error(), "starves silently") {
		t.Fatalf("a lost peer passed the starvation identity: %v", err)
	}
}

// TestSnapshotRoundTrip restores a mid-run core into a fresh one built
// from fresh plans and requires identical state, then doctors the
// snapshot and requires corruption errors.
func TestSnapshotRoundTrip(t *testing.T) {
	build := func() *Core {
		c, err := New(6, 5, mustFault(t, true), mustAdv(t, 6), nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := build()
	fill(c, 2)
	c.Deliver(3, 1)
	c.Crash(2, 1.5)
	c.Resolve(4, adversary.Deliver)
	pending := []fault.Event{{Time: 3.5, Node: 2, Kind: fault.Rejoin, Wiped: true}}
	snap := &checkpoint.Snapshot{}
	c.Snapshot(snap)

	r := build()
	if err := r.Restore(snap, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckPending(pending, 2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Peers, c.Peers) || !reflect.DeepEqual(r.Log, c.Log) || r.Tally != c.Tally {
		t.Fatal("restored core differs from the snapshotted one")
	}
	if err := r.CheckPending(nil, 2); err == nil {
		t.Fatal("a pending rejoin without a queued event passed")
	}
	if err := build().Restore(snap, 1); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("a log entry after the restore time: %v", err)
	}

	// Doctor the peers section: a completed client the counters miss.
	d := build()
	fill(d, 2)
	fill(d, 5)
	d.complete = 1
	bad := &checkpoint.Snapshot{}
	d.Snapshot(bad)
	if err := build().Restore(bad, 0); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("inconsistent completion counter restored: %v", err)
	}
}
