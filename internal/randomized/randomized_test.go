package randomized

import (
	"reflect"
	"testing"

	"barterdist/internal/analysis"
	"barterdist/internal/graph"
	"barterdist/internal/mechanism"
	"barterdist/internal/simulate"
	"barterdist/internal/xrand"
)

func runRandomized(t *testing.T, cfg simulate.Config, opts Options) *simulate.Result {
	t.Helper()
	opts.DownloadCap = cfg.DownloadCap
	sched, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(cfg, sched)
	if err != nil {
		t.Fatalf("n=%d k=%d: %v", cfg.Nodes, cfg.Blocks, err)
	}
	return res
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Policy: Policy(99)}); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := New(Options{CreditLimit: -1}); err == nil {
		t.Error("negative credit should error")
	}
	// A negative cap would fail every capacity check and stall the run
	// until MaxTicks; 0 is the unlimited cap.
	if err := (&Options{DownloadCap: -1}).Validate(); err == nil {
		t.Error("negative download cap should error")
	}
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Ledger() != nil {
		t.Error("cooperative scheduler should have no ledger")
	}
	s2, err := New(Options{CreditLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Ledger() == nil || s2.Ledger().Limit() != 2 {
		t.Error("credit scheduler should carry a ledger with the limit")
	}
}

func TestGraphSizeMismatchDetected(t *testing.T) {
	sched, err := New(Options{Graph: graph.Complete(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulate.Run(simulate.Config{Nodes: 7, Blocks: 2}, sched); err == nil {
		t.Fatal("overlay/simulation size mismatch not detected")
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{Random: "random", RarestFirst: "rarest-first", LocalRare: "local-rare", Policy(9): "policy(9)"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestCompletesOnCompleteGraph(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{2, 1}, {4, 4}, {16, 8}, {64, 32}, {100, 50}, {31, 17},
	} {
		res := runRandomized(t, simulate.Config{Nodes: tc.n, Blocks: tc.k, DownloadCap: 1},
			Options{Seed: 7})
		lower := analysis.CooperativeLowerBound(tc.n, tc.k)
		if res.CompletionTime < lower {
			t.Errorf("n=%d k=%d: T=%d below lower bound %d", tc.n, tc.k, res.CompletionTime, lower)
		}
	}
}

func TestNearOptimalOnCompleteGraph(t *testing.T) {
	// The paper's headline empirical claim (Section 2.4.4): the
	// randomized algorithm is within a few percent of optimal for large
	// k. Allow 15% headroom over k - 1 + log2 n at this scale.
	const n, k = 128, 256
	sum := 0
	const reps = 3
	for rep := 0; rep < reps; rep++ {
		res := runRandomized(t, simulate.Config{Nodes: n, Blocks: k, DownloadCap: 1},
			Options{Seed: uint64(rep + 1)})
		sum += res.CompletionTime
	}
	mean := float64(sum) / reps
	opt := float64(analysis.CooperativeLowerBound(n, k))
	if mean > 1.15*opt {
		t.Errorf("mean T=%.1f more than 15%% above optimal %.0f", mean, opt)
	}
}

func TestRarestFirstAlsoNearOptimal(t *testing.T) {
	const n, k = 64, 64
	res := runRandomized(t, simulate.Config{Nodes: n, Blocks: k, DownloadCap: 1},
		Options{Policy: RarestFirst, Seed: 3})
	opt := analysis.CooperativeLowerBound(n, k)
	if res.CompletionTime > opt+opt/4 {
		t.Errorf("rarest-first T=%d far above optimal %d", res.CompletionTime, opt)
	}
}

func TestLocalRarePolicyCompletes(t *testing.T) {
	rng := xrand.New(5)
	g, err := graph.RandomRegular(32, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res := runRandomized(t, simulate.Config{Nodes: 32, Blocks: 16, DownloadCap: 1},
		Options{Graph: g, Policy: LocalRare, Seed: 11})
	if res.CompletionTime < analysis.CooperativeLowerBound(32, 16) {
		t.Error("below lower bound: simulation accounting broken")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := simulate.Config{Nodes: 32, Blocks: 16, DownloadCap: 1, RecordTrace: true}
	a := runRandomized(t, cfg, Options{Seed: 42})
	b := runRandomized(t, cfg, Options{Seed: 42})
	if a.CompletionTime != b.CompletionTime || a.TotalTransfers != b.TotalTransfers {
		t.Fatal("same seed produced different runs")
	}
	if a.Trace.Len() != b.Trace.Len() || a.Trace.Ticks() != b.Trace.Ticks() {
		t.Fatalf("trace shape differs between identical seeds")
	}
	if !reflect.DeepEqual(a.Trace.Materialize(), b.Trace.Materialize()) {
		t.Fatal("transfers differ between identical seeds")
	}
	c := runRandomized(t, cfg, Options{Seed: 43})
	if c.CompletionTime == a.CompletionTime && c.TotalTransfers == a.TotalTransfers {
		t.Log("different seeds coincidentally matched (possible but unlikely)")
	}
}

func TestRunsOnHypercubeOverlay(t *testing.T) {
	g := graph.Hypercube(5) // 32 nodes, degree 5
	res := runRandomized(t, simulate.Config{Nodes: 32, Blocks: 32, DownloadCap: 1},
		Options{Graph: g, Seed: 9})
	opt := analysis.CooperativeLowerBound(32, 32)
	// Section 2.4.4: the hypercube overlay matches the complete graph.
	if res.CompletionTime > 2*opt {
		t.Errorf("hypercube overlay T=%d far above optimal %d", res.CompletionTime, opt)
	}
}

func TestRunsOnRandomRegularOverlay(t *testing.T) {
	rng := xrand.New(17)
	g, err := graph.RandomRegular(64, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	res := runRandomized(t, simulate.Config{Nodes: 64, Blocks: 32, DownloadCap: 1},
		Options{Graph: g, Seed: 1})
	if res.CompletionTime < analysis.CooperativeLowerBound(64, 32) {
		t.Error("impossible completion time")
	}
}

func TestChainOverlayDegradesToPipelineSpeed(t *testing.T) {
	// On a chain overlay the algorithm cannot beat (or even reach) the
	// deterministic pipeline, but it must still complete.
	g := graph.Chain(16)
	res := runRandomized(t, simulate.Config{Nodes: 16, Blocks: 8, DownloadCap: 1},
		Options{Graph: g, Seed: 2})
	if res.CompletionTime < analysis.PipelineTime(16, 8) {
		t.Errorf("chain overlay T=%d beats the pipeline optimum %d",
			res.CompletionTime, analysis.PipelineTime(16, 8))
	}
}

func TestUnlimitedDownloadCap(t *testing.T) {
	res := runRandomized(t, simulate.Config{Nodes: 32, Blocks: 16, DownloadCap: simulate.Unlimited},
		Options{Seed: 21})
	if res.CompletionTime < analysis.CooperativeLowerBound(32, 16) {
		t.Error("impossible completion time")
	}
}

func TestCreditLimitedRespectsLedger(t *testing.T) {
	// Trace-audit a credit-limited run: per-pair net must never exceed s.
	for _, s := range []int{1, 2, 5} {
		sched, err := New(Options{CreditLimit: s, Seed: uint64(s), DownloadCap: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate.Run(simulate.Config{
			Nodes: 32, Blocks: 16, DownloadCap: 1, RecordTrace: true,
		}, sched)
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		if err := mechanism.VerifyCreditLimited(res.Trace.Cursor(), s); err != nil {
			t.Errorf("s=%d: trace violates credit limit: %v", s, err)
		}
	}
}

func TestCreditLimitedOnSparseGraphStallsOrSlows(t *testing.T) {
	// Figure 6's qualitative claim: under credit s=1 a low-degree overlay
	// is dramatically slower than a high-degree one.
	rng := xrand.New(33)
	lowG, err := graph.RandomRegular(64, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	highG, err := graph.RandomRegular(64, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *graph.Graph) int {
		sched, err := New(Options{Graph: g, CreditLimit: 1, Seed: 5, DownloadCap: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate.Run(simulate.Config{
			Nodes: 64, Blocks: 64, DownloadCap: 2, MaxTicks: 40000,
		}, sched)
		if err != nil {
			return 40000 // treat a stall as the tick budget
		}
		return res.CompletionTime
	}
	low, high := run(lowG), run(highG)
	if low <= high {
		t.Errorf("low-degree T=%d not worse than high-degree T=%d under credit barter", low, high)
	}
}

func TestServerNeverReceives(t *testing.T) {
	sched, err := New(Options{Seed: 3, DownloadCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(simulate.Config{
		Nodes: 16, Blocks: 8, DownloadCap: 1, RecordTrace: true,
	}, sched)
	if err != nil {
		t.Fatal(err)
	}
	for ti, ts := range res.Trace.Materialize() {
		for _, tr := range ts {
			if tr.To == 0 {
				t.Fatalf("tick %d: transfer to the server", ti+1)
			}
		}
	}
}

func TestNoDuplicateDeliveriesWithinTick(t *testing.T) {
	sched, err := New(Options{Seed: 4, DownloadCap: simulate.Unlimited})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(simulate.Config{
		Nodes: 32, Blocks: 16, DownloadCap: simulate.Unlimited, RecordTrace: true,
	}, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTransfers != res.UsefulTransfers {
		t.Fatalf("redundant transfers occurred: total=%d useful=%d",
			res.TotalTransfers, res.UsefulTransfers)
	}
	for ti, ts := range res.Trace.Materialize() {
		seen := map[[2]int32]bool{}
		for _, tr := range ts {
			key := [2]int32{tr.To, tr.Block}
			if seen[key] {
				t.Fatalf("tick %d: block %d delivered twice to node %d", ti+1, tr.Block, tr.To)
			}
			seen[key] = true
		}
	}
	// Exactly (n-1)*k useful transfers must have happened.
	if res.UsefulTransfers != 31*16 {
		t.Fatalf("useful transfers = %d, want %d", res.UsefulTransfers, 31*16)
	}
}

func TestSingleClient(t *testing.T) {
	res := runRandomized(t, simulate.Config{Nodes: 2, Blocks: 5, DownloadCap: 1}, Options{Seed: 1})
	if res.CompletionTime != 5 {
		t.Errorf("single client T=%d, want 5", res.CompletionTime)
	}
}

func TestLargeRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large smoke test")
	}
	res := runRandomized(t, simulate.Config{Nodes: 1000, Blocks: 200, DownloadCap: 1},
		Options{Seed: 99})
	opt := analysis.CooperativeLowerBound(1000, 200)
	// The relative gap shrinks with k (Section 2.4.4); at k = 200 it is
	// still a few tens of ticks, so allow 35%.
	if res.CompletionTime > opt+opt*35/100 {
		t.Errorf("n=1000 k=200: T=%d vs optimal %d (more than 35%% off)", res.CompletionTime, opt)
	}
}
