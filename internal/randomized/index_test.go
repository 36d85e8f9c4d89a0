package randomized

import (
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/fault"
	"barterdist/internal/simulate"
	"barterdist/internal/xrand"
)

// TestEligIndexMatchesScan pins the incremental eligibility index to
// the naive predicate it replaced: after every tick of a churny,
// credit-limited, adversarial run, (b, v) must be indexed exactly when
// v is an alive, incomplete client missing block b — the condition the
// old O(n) bitset.AnyMissingFrom scan tested candidate by candidate.
// The member lists and position slab are also cross-checked against
// each other, so a swap-remove bookkeeping bug cannot hide behind a
// correct membership answer. Every open prefix must span its whole
// list at the tick boundary, and once the tick's rounds have run, only
// saturated members may sit behind a prefix.
func TestEligIndexMatchesScan(t *testing.T) {
	faultPlan, err := fault.NewPlan(fault.Options{
		Seed:              21,
		CrashRate:         0.08,
		MaxCrashes:        4,
		RejoinDelay:       3,
		RejoinLosesBlocks: true,
		LossRate:          0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 24
	advPlan, err := adversary.NewPlan(nodes, adversary.Options{
		Seed:          99,
		FreeRiderFrac: 0.15,
		CorrupterFrac: 0.1,
		DefectorFrac:  0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := New(Options{Seed: 5, DownloadCap: 1, CreditLimit: 1, ShardWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ticksChecked := 0
	probe := simulate.SchedulerFunc(func(tick int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
		// Tick's own steps (the complete graph never rewires), split so
		// the index can be checked at the tick boundary: beginTick has
		// folded last tick's deliveries, losses, and fault events, and
		// the engine has not yet applied this tick's transfers — so the
		// index must equal the tick-start ground truth, with every open
		// prefix reopened to its whole list.
		if !sched.init {
			if err := sched.setup(st); err != nil {
				return nil, err
			}
		}
		sched.beginTick(st)
		ix := sched.index
		for b := 0; b < st.K(); b++ {
			members := 0
			for v := 1; v < st.N(); v++ {
				want := st.Alive(v) && !st.Blocks(v).Full() && !st.Blocks(v).Has(b)
				if got := ix.has(b, v); got != want {
					t.Fatalf("tick %d block %d node %d: index.has=%v, predicate=%v", tick, b, v, got, want)
				}
				if want {
					members++
				}
			}
			if int(ix.count[b]) != members {
				t.Fatalf("tick %d block %d: count=%d, scan found %d members", tick, b, ix.count[b], members)
			}
			if ix.open[b] != ix.count[b] {
				t.Fatalf("tick %d block %d: open=%d at the tick boundary, count=%d", tick, b, ix.open[b], ix.count[b])
			}
			checkListPositions(t, ix, b)
		}
		if ix.has(0, 0) {
			t.Fatalf("tick %d: server indexed as a receiver", tick)
		}
		checkNonEmpty(t, ix)
		out, err := sched.pairRounds(st, dst)
		if err != nil {
			return nil, err
		}
		// Compaction only reorders lists: everything behind an open
		// prefix must be saturated this tick.
		checkNonEmpty(t, ix)
		for b := 0; b < st.K(); b++ {
			checkListPositions(t, ix, b)
			base := b * st.N()
			for i := ix.open[b]; i < ix.count[b]; i++ {
				if v := ix.members[base+int(i)]; sched.availPos[v] >= 0 {
					t.Fatalf("tick %d block %d: unsaturated node %d behind the open prefix", tick, b, v)
				}
			}
		}
		ticksChecked++
		return out, nil
	})
	if _, err := simulate.Run(simulate.Config{
		Nodes: nodes, Blocks: 12, DownloadCap: 1,
		Fault: faultPlan, Adversary: advPlan, RecordTrace: true,
	}, probe); err != nil {
		t.Fatal(err)
	}
	if ticksChecked == 0 {
		t.Fatal("probe never ran")
	}
}

// checkListPositions cross-checks list b's member slab against the
// position slab, so a swap bookkeeping bug cannot hide behind a correct
// membership answer.
func checkListPositions(t *testing.T, ix *eligIndex, b int) {
	t.Helper()
	base := b * ix.n
	for i := 0; i < int(ix.count[b]); i++ {
		v := ix.members[base+i]
		if p := ix.pos[base+int(v)]; int(p) != i {
			t.Fatalf("block %d: members[%d]=%d but pos=%d", b, i, v, p)
		}
	}
}

// checkNonEmpty checks the nonEmpty mask against the counts: bit b is
// set exactly when list b has a member, and no bit past k is set.
func checkNonEmpty(t *testing.T, ix *eligIndex) {
	t.Helper()
	for b := 0; b < 64*len(ix.nonEmpty); b++ {
		got := ix.nonEmpty[b/64]&(1<<(uint(b)%64)) != 0
		if want := b < ix.k && ix.count[b] > 0; got != want {
			t.Fatalf("block %d: nonEmpty bit %v, count > 0 is %v", b, got, want)
		}
	}
}

// TestPassStatsWorkerInvariant pins the exact-pass counters to the
// logical lanes: a churny, adversarial, credit-limited run must report
// identical PassStats for every ShardWorkers width, and the run must
// exercise the pass enough for the comparison to mean something.
func TestPassStatsWorkerInvariant(t *testing.T) {
	const nodes = 300
	var want PassStats
	for _, workers := range []int{1, 2, 4} {
		faultPlan, err := fault.NewPlan(fault.Options{
			Seed: 7, CrashRate: 0.05, MaxCrashes: 6, RejoinDelay: 2, LossRate: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		advPlan, err := adversary.NewPlan(nodes, adversary.Options{Seed: 8, FreeRiderFrac: 0.1, CorrupterFrac: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := New(Options{Seed: 9, DownloadCap: 1, CreditLimit: 1, ShardWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := simulate.Run(simulate.Config{
			Nodes: nodes, Blocks: 16, DownloadCap: 1, Fault: faultPlan, Adversary: advPlan,
		}, sched); err != nil {
			t.Fatal(err)
		}
		got := sched.PassStats()
		if workers == 1 {
			if got.Passes == 0 || got.Visited == 0 || got.RejectCap == 0 || got.RejectCredit == 0 {
				t.Fatalf("run barely exercised the exact pass: %+v", got)
			}
			want = got
			continue
		}
		if got != want {
			t.Errorf("ShardWorkers %d: PassStats %+v, ShardWorkers 1 gave %+v", workers, got, want)
		}
	}
}

// TestEligIndexCompactMatchesPartition drives compact on random lists
// with saturated sets that grow across rounds, as within a tick, and
// checks it against a reference partition: list membership and the
// position slab survive, and exactly the saturated members end up
// behind the open prefix. A following tick's adds and removes on the
// full lists, then reopen, must leave a consistent index again.
func TestEligIndexCompactMatchesPartition(t *testing.T) {
	const n, k = 40, 5
	rng := xrand.New(17)
	for trial := 0; trial < 200; trial++ {
		ix := newEligIndex(n, k)
		for b := 0; b < k; b++ {
			for v := 1; v < n; v++ {
				if rng.Intn(3) != 0 {
					ix.add(b, v)
				}
			}
		}
		ix.reopen()
		availPos := make([]int32, n)
		for round := 0; round < 3; round++ {
			for v := range availPos {
				if rng.Intn(4) == 0 {
					availPos[v] = -1
				}
			}
			for b := 0; b < k; b++ {
				if rng.Intn(2) == 0 {
					continue // a list no lane flagged this round
				}
				ix.compact(b, availPos)
				checkListPositions(t, ix, b)
				base := b * n
				for i := int32(0); i < ix.count[b]; i++ {
					v := ix.members[base+int(i)]
					if open := i < ix.open[b]; open != (availPos[v] >= 0) {
						t.Fatalf("trial %d round %d block %d: node %d (availPos %d) at %d, open prefix %d",
							trial, round, b, v, availPos[v], i, ix.open[b])
					}
				}
			}
			for b := 0; b < k; b++ {
				for v := 0; v < n; v++ {
					in := false
					for i := int32(0); i < ix.count[b]; i++ {
						in = in || ix.members[b*n+int(i)] == int32(v)
					}
					if in != ix.has(b, v) {
						t.Fatalf("trial %d block %d node %d: in list=%v, has=%v", trial, b, v, in, ix.has(b, v))
					}
				}
			}
		}
		// The next tick: adds and removes on the full lists, then reopen.
		for j := 0; j < 20; j++ {
			b, v := rng.Intn(k), 1+rng.Intn(n-1)
			if rng.Intn(2) == 0 {
				ix.add(b, v)
			} else {
				ix.remove(b, v)
			}
		}
		ix.reopen()
		checkNonEmpty(t, ix)
		for b := 0; b < k; b++ {
			checkListPositions(t, ix, b)
			if ix.open[b] != ix.count[b] {
				t.Fatalf("trial %d block %d: open=%d after reopen, count=%d", trial, b, ix.open[b], ix.count[b])
			}
		}
	}
}

// TestPassStatsGolden pins the exact-pass counters of one run of the
// benchmark's closed-credit shape (n = 2048, k = 64, credit s = 1,
// download cap 1, seed 46000). The counters follow every draw of the
// rejection sampler and every election of the exact pass, so a change
// that only makes a try cheaper must leave them exactly as they are.
func TestPassStatsGolden(t *testing.T) {
	sched, err := New(Options{Seed: 46000, CreditLimit: 1, DownloadCap: 1, ShardWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(simulate.Config{Nodes: 2048, Blocks: 64, DownloadCap: 1}, sched)
	if err != nil {
		t.Fatal(err)
	}
	want := PassStats{Passes: 46831, Visited: 4975182, Skipped: 3821029, RejectCap: 557416, RejectCredit: 552}
	if got := sched.PassStats(); got != want || res.CompletionTime != 96 {
		t.Fatalf("T = %d, PassStats = %#v\nwant %#v", res.CompletionTime, got, want)
	}
}
