package simulate_test

import (
	"testing"

	"barterdist/internal/randomized"
	"barterdist/internal/schedule"
	"barterdist/internal/simulate"
)

// TestSteadyStateTickAllocations pins the zero-alloc tick core: after
// warm-up, advancing the synchronous engine one tick — scheduler pass,
// capacity validation, delivery, AND columnar trace recording — must
// allocate (almost) nothing. Everything per-tick lives in reused
// scratch: epoch-stamped capacity counters, the swap-reused transfer
// and drop staging buffers, and trace columns pre-sized by the
// (n-1)·k completion bound. A regression here silently reintroduces
// the per-tick make() churn that made large-n runs OOM-class.
//
// Two schedulers drive it: the randomized scheduler, whose scratch is
// the most involved, and the binomial pipeline, whose per-vertex plans
// are one slice per run.
func TestSteadyStateTickAllocations(t *testing.T) {
	t.Run("randomized", func(t *testing.T) {
		sched, err := randomized.New(randomized.Options{Seed: 11, DownloadCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkTickAllocations(t, 512, 256, sched)
	})
	t.Run("binomial-pipeline", func(t *testing.T) {
		sched, err := schedule.NewBinomialPipeline(1024, 256)
		if err != nil {
			t.Fatal(err)
		}
		checkTickAllocations(t, 1024, 256, sched)
	})
}

// checkTickAllocations warms an n-node, k-block traced run of sched up
// and fails if a further tick allocates once or more on average.
func checkTickAllocations(t *testing.T, n, k int, sched simulate.Scheduler) {
	t.Helper()
	cfg := simulate.Config{
		Nodes: n, Blocks: k,
		DownloadCap: 1,
		RecordTrace: true,
	}
	r, err := simulate.NewTestRunner(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	tick := 1
	step := func() {
		done, err := r.Step(tick)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if done {
			t.Fatalf("run completed at tick %d; measurement needs steady state (raise k)", tick)
		}
		tick++
	}
	// Warm-up: first touches allocate lazily (per-receiver in-flight
	// rows, scheduler scratch) and the trace's Reserve hints settle.
	for tick <= 32 {
		step()
	}
	const measured = 64
	avg := testing.AllocsPerRun(measured, step)
	// ≈ 0: the occasional allocation (a rare append past a hint, a map
	// rehash) amortizes out; anything ≥ 1 per tick is per-tick churn.
	if avg >= 1 {
		t.Fatalf("steady-state tick allocates %.2f times on average (want ≈ 0)", avg)
	}
	t.Logf("%.2f allocations per tick", avg)
}
