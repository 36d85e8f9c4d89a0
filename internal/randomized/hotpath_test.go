package randomized

import (
	"errors"
	"testing"

	"barterdist/internal/fault"
	"barterdist/internal/graph"
	"barterdist/internal/simulate"
)

// errProbeDone lets scripted probe schedulers stop a run early once
// their assertions have executed.
var errProbeDone = errors.New("probe done")

// TestLocalRareCountsSaturatedPeers is the regression test for the
// LocalRare complete-graph rarity estimate. The buggy version counted
// block holders over the live avail list, which shrinks as receivers
// saturate their download capacity mid-tick — so whether a block looked
// rare depended on which uploads happened to be processed first. The
// fix snapshots the tick-start peer population (localPeers); this test
// drives the scheduler internals directly, saturates two peers, and
// pins both the raw count and the chosen block.
//
// Scripted state (n=7, k=2) built over three ticks:
//
//	node:    1    2    3    4    5    6
//	holds:  B0   B1   B0   B1   B1   (none)
//
// At tick 4 the tick-start population is clients 1..6, so from node 6's
// view B0 has 2 holders and B1 has 3 — rarest is B0. The buggy count
// after nodes 2 and 4 saturate sees B1 with a single holder (node 5)
// and flips the choice to B1.
func TestLocalRareCountsSaturatedPeers(t *testing.T) {
	sched, err := New(Options{Policy: LocalRare, DownloadCap: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	probe := simulate.SchedulerFunc(func(tick int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
		tr := func(from, to, block int) simulate.Transfer {
			return simulate.Transfer{From: int32(from), To: int32(to), Block: int32(block)}
		}
		switch tick {
		case 1:
			return append(dst, tr(0, 1, 0)), nil
		case 2:
			return append(dst, tr(0, 2, 1), tr(1, 3, 0)), nil
		case 3:
			return append(dst, tr(0, 4, 1), tr(2, 5, 1)), nil
		}
		// Tick 4: drive the scheduler's own bookkeeping against the
		// scripted state, saturate two peers, and check the estimate.
		if err := sched.setup(st); err != nil {
			return nil, err
		}
		sched.beginTick(st)
		sched.removeAvail(2)
		sched.removeAvail(4)
		ln := sched.lanes[0] // uploader 0's lane
		if got := sched.localFreq(st, 6, 0); got != 2 {
			return nil, errors.New("blockFreq(6, B0) changed")
		}
		if got := sched.localFreq(st, 6, 1); got != 3 {
			// The buggy avail-based count reports 1 here.
			return nil, errors.New("blockFreq(6, B1) ignores saturated holders")
		}
		if got := sched.pickBlock(ln, st, 0, 6); got != 0 {
			return nil, errors.New("LocalRare picked the wrong rarest block")
		}
		checked = true
		return nil, errProbeDone
	})
	_, err = simulate.Run(simulate.Config{Nodes: 7, Blocks: 2, DownloadCap: 1, MaxTicks: 10}, probe)
	if !errors.Is(err, errProbeDone) {
		t.Fatalf("probe did not complete: %v", err)
	}
	if !checked {
		t.Fatal("assertions never ran")
	}
}

// freqOracle recomputes the replication counts the incremental
// bookkeeping must agree with at the end of a tick: holdings of alive
// nodes plus this tick's still-in-flight transfers (the scheduler
// increments freq speculatively when it emits a transfer).
func freqOracle(st *simulate.State, emitted []simulate.Transfer) []int {
	want := make([]int, st.K())
	for v := 0; v < st.N(); v++ {
		if st.Alive(v) {
			st.Blocks(v).AccumulateCounts(want, 1)
		}
	}
	for _, tr := range emitted {
		want[tr.Block]++
	}
	return want
}

func checkFreq(t *testing.T, tick int, got, want []int) {
	t.Helper()
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("tick %d: freq[%d] = %d, oracle says %d", tick, b, got[b], want[b])
		}
	}
}

// TestIncrementalFreqMatchesRecompute cross-checks the incremental
// rarity maintenance (loss decrements plus word-parallel crash/rejoin
// deltas in beginTick) against a from-scratch recount after every tick
// of a churny rarest-first run, in both the keep-blocks and
// wiped-rejoin regimes.
func TestIncrementalFreqMatchesRecompute(t *testing.T) {
	const n, k = 24, 16
	for _, wipe := range []bool{false, true} {
		inner, err := New(Options{Policy: RarestFirst, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		wrapped := simulate.SchedulerFunc(func(tick int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
			start := len(dst)
			ret, err := inner.Tick(tick, st, dst)
			if err != nil {
				return ret, err
			}
			checkFreq(t, tick, inner.freq, freqOracle(st, ret[start:]))
			return ret, nil
		})
		cfg := simulate.Config{
			Nodes: n, Blocks: k, MaxTicks: 60 * (n + k),
			Fault: churnPlan(t, fault.Options{
				Seed:              41,
				CrashRate:         0.12,
				MaxCrashes:        4,
				RejoinDelay:       5,
				RejoinLosesBlocks: wipe,
				LossRate:          0.05,
			}),
		}
		res, err := simulate.Run(cfg, wrapped)
		if err != nil {
			t.Fatalf("wipe=%v: %v", wipe, err)
		}
		if len(res.FaultLog) == 0 || res.LostTransfers == 0 {
			t.Fatalf("wipe=%v: seed produced no churn; pick a livelier seed", wipe)
		}
	}
}

// TestTriangularIncrementalFreqMatchesRecompute repeats the oracle
// check for the triangular-barter scheduler, whose inner scheduler's
// beginTick folds losses and faults while the triangular emit loop adds
// its own increments.
func TestTriangularIncrementalFreqMatchesRecompute(t *testing.T) {
	const n, k = 24, 16
	inner, err := NewTriangular(TriangularOptions{
		Graph: graph.Complete(n), Policy: RarestFirst, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := simulate.SchedulerFunc(func(tick int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
		start := len(dst)
		ret, err := inner.Tick(tick, st, dst)
		if err != nil {
			return ret, err
		}
		checkFreq(t, tick, inner.s.freq, freqOracle(st, ret[start:]))
		return ret, nil
	})
	cfg := simulate.Config{
		Nodes: n, Blocks: k, MaxTicks: 120 * (n + k),
		Fault: churnPlan(t, fault.Options{
			Seed:              44,
			CrashRate:         0.12,
			MaxCrashes:        3,
			RejoinDelay:       5,
			RejoinLosesBlocks: true,
			LossRate:          0.03,
		}),
	}
	res, err := simulate.Run(cfg, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultLog) == 0 {
		t.Fatal("seed produced no fault events; pick a livelier seed")
	}
}

// TestCandidateSetMatchesScan pins the incrementally maintained
// candidate membership (alive, incomplete clients) against the
// from-scratch predicate scan it replaced, across a run with crashes,
// wiped rejoins, losses, and free-riders — every channel that can move
// a node in or out of the set.
func TestCandidateSetMatchesScan(t *testing.T) {
	plan, err := fault.NewPlan(fault.Options{
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
	sched, err := New(Options{Seed: 5, DownloadCap: 1, CreditLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ticksChecked := 0
	probe := simulate.SchedulerFunc(func(tick int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
		out, err := sched.Tick(tick, st, dst)
		if err != nil {
			return nil, err
		}
		// beginTick ran at the top of Tick and nothing mutates the
		// engine state until the transfers land, so the candidate set
		// must equal the tick-start predicate right now.
		for v := 1; v < st.N(); v++ {
			want := st.Alive(v) && !st.Blocks(v).Full()
			if got := sched.candidates.Has(v); got != want {
				t.Fatalf("tick %d node %d: candidates.Has=%v, predicate=%v", tick, v, got, want)
			}
		}
		ticksChecked++
		return out, nil
	})
	if _, err := simulate.Run(simulate.Config{
		Nodes: 24, Blocks: 12, DownloadCap: 1, Fault: plan, RecordTrace: true,
	}, probe); err != nil {
		t.Fatal(err)
	}
	if ticksChecked == 0 {
		t.Fatal("probe never ran")
	}
}
