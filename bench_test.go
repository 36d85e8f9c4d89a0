package barterdist_test

// One benchmark per figure/table of the paper's evaluation, at reduced
// (CI) scale so `go test -bench=.` finishes quickly; cmd/paperfigs runs
// the same generators at full paper scale. The mapping from benchmark to
// paper artifact is recorded in DESIGN.md's experiment index.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"barterdist"
	"barterdist/internal/asim"
	"barterdist/internal/bt"
	"barterdist/internal/experiment"
	"barterdist/internal/fault"
	"barterdist/internal/graph"
	"barterdist/internal/lint"
	"barterdist/internal/mechanism"
	"barterdist/internal/parallel"
	"barterdist/internal/randomized"
	"barterdist/internal/simulate"
	"barterdist/internal/trace"
	"barterdist/internal/xrand"
)

// Benchmarks run the generators with Workers: 1 so that ns/op measures
// the sequential cost of the work itself, comparable across machines
// with different core counts; the parallel runner's speedup is reported
// separately by cmd/cdbench and the paperfigs wall-clock table.
func benchFigure(b *testing.B, gen func(experiment.Scale, experiment.Options) (*experiment.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := gen(experiment.ScaleCI, experiment.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func benchTable(b *testing.B, gen func(experiment.Scale, experiment.Options) (*experiment.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := gen(experiment.ScaleCI, experiment.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableA_Baselines regenerates Table A: the Section 2.2
// baseline schedules against the Theorem 1 bound.
func BenchmarkTableA_Baselines(b *testing.B) { benchTable(b, experiment.TableA) }

// BenchmarkFig3_TvsN regenerates Figure 3: randomized cooperative
// completion time vs n on the complete graph.
func BenchmarkFig3_TvsN(b *testing.B) { benchFigure(b, experiment.Fig3) }

// BenchmarkFig4_TvsK regenerates Figure 4: completion time vs k.
func BenchmarkFig4_TvsK(b *testing.B) { benchFigure(b, experiment.Fig4) }

// BenchmarkTableB_Regression regenerates Table B: the least-squares fit
// of Section 2.4.4.
func BenchmarkTableB_Regression(b *testing.B) { benchTable(b, experiment.TableB) }

// BenchmarkFig5_TvsDegree regenerates Figure 5: completion time vs
// random-regular overlay degree, plus the hypercube comparison.
func BenchmarkFig5_TvsDegree(b *testing.B) { benchFigure(b, experiment.Fig5) }

// BenchmarkFig6_CreditRandom regenerates Figure 6: credit-limited barter
// under the Random policy.
func BenchmarkFig6_CreditRandom(b *testing.B) { benchFigure(b, experiment.Fig6) }

// BenchmarkFig7_CreditRarest regenerates Figure 7: credit-limited barter
// under Rarest-First.
func BenchmarkFig7_CreditRarest(b *testing.B) { benchFigure(b, experiment.Fig7) }

// BenchmarkTableC_PriceOfBarter regenerates Table C: cooperative vs
// strict-barter completion times with mechanism audits.
func BenchmarkTableC_PriceOfBarter(b *testing.B) { benchTable(b, experiment.TableC) }

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblation_BinomialPipeline measures the optimal schedule
// itself (n=256, k=256): the engine plus schedule cost of one run.
func BenchmarkAblation_BinomialPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := barterdist.Run(barterdist.Config{Nodes: 256, Blocks: 256})
		if err != nil {
			b.Fatal(err)
		}
		if res.CompletionTime != res.OptimalTime {
			b.Fatalf("T=%d, optimal %d", res.CompletionTime, res.OptimalTime)
		}
	}
}

// BenchmarkAblation_RifflePipeline measures the strict-barter schedule
// (n=129, k=256), including schedule construction.
func BenchmarkAblation_RifflePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := barterdist.Run(barterdist.Config{
			Nodes: 129, Blocks: 256, Algorithm: barterdist.AlgoRiffle,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RandomizedComplete measures one randomized
// cooperative run (n=256, k=256) on the complete graph — the Figure 3/4
// inner loop.
func BenchmarkAblation_RandomizedComplete(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := barterdist.Run(barterdist.Config{
			Nodes: 256, Blocks: 256, Algorithm: barterdist.AlgoRandomized, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RandomizedRegularDegree16 measures the
// random-regular overlay path (n=256, k=256, d=16) — the Figure 5-7
// inner loop.
func BenchmarkAblation_RandomizedRegularDegree16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := barterdist.Run(barterdist.Config{
			Nodes: 256, Blocks: 256, Algorithm: barterdist.AlgoRandomized,
			Overlay: barterdist.OverlayRandomRegular, Degree: 16, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RarestFirstOverhead isolates the cost of
// Rarest-First block selection versus Random at the same size.
func BenchmarkAblation_RarestFirstOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := barterdist.Run(barterdist.Config{
			Nodes: 256, Blocks: 256, Algorithm: barterdist.AlgoRandomized,
			Policy: barterdist.PolicyRarestFirst, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RarestFirstChurn measures a faulty Rarest-First run:
// frequent crash/rejoin events force the scheduler to repair its global
// rarity statistics, so this is the benchmark that exposes the cost of
// the (formerly O(n·k) per event) frequency maintenance.
func BenchmarkAblation_RarestFirstChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := barterdist.Run(barterdist.Config{
			Nodes: 256, Blocks: 256, Algorithm: barterdist.AlgoRandomized,
			Policy: barterdist.PolicyRarestFirst, Seed: uint64(i),
			MaxTicks: 8000,
			Fault: &fault.Options{
				Seed:              uint64(1000 + i),
				CrashRate:         0.4,
				MaxCrashes:        4096,
				RejoinDelay:       4,
				RejoinLosesBlocks: false,
				LossRate:          0.02,
			},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_CreditLedgerOverhead compares credit-limited against
// cooperative at the same size and overlay: the delta is the ledger and
// qualification cost of the barter mechanism.
func BenchmarkAblation_CreditLedgerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := barterdist.Run(barterdist.Config{
			Nodes: 256, Blocks: 128, Algorithm: barterdist.AlgoRandomized,
			Overlay: barterdist.OverlayRandomRegular, Degree: 64,
			Policy: barterdist.PolicyRarestFirst, CreditLimit: 1, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_TriangularSettlement measures the cycle-settlement
// scheduler (the Section 3.3 future-work algorithm).
func BenchmarkAblation_TriangularSettlement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := barterdist.Run(barterdist.Config{
			Nodes: 128, Blocks: 128, Algorithm: barterdist.AlgoTriangular,
			Overlay: barterdist.OverlayRandomRegular, Degree: 32,
			Policy: barterdist.PolicyRarestFirst, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RewiredOverlay measures the periodic-rewiring
// variant the paper's Section 3.2.4 closes with.
func BenchmarkAblation_RewiredOverlay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := barterdist.Run(barterdist.Config{
			Nodes: 128, Blocks: 128, Algorithm: barterdist.AlgoRandomized,
			Overlay: barterdist.OverlayRandomRegular, Degree: 16,
			Policy: barterdist.PolicyRarestFirst, CreditLimit: 1,
			RewireEvery: 20, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableD_BitTorrent regenerates Table D: the Section 4
// BitTorrent-vs-optimal comparison on the asynchronous simulator.
func BenchmarkTableD_BitTorrent(b *testing.B) { benchTable(b, experiment.TableD) }

// benchShardWorkers reads the tick-core worker width cdbench exports
// via BARTERDIST_SHARD_WORKERS (`cdbench -shardworkers N`); 0 keeps the
// config default. Results are byte-identical for any value — only
// wall-clock moves — so the knob never changes what a benchmark checks.
func benchShardWorkers(b *testing.B) int {
	b.Helper()
	v := os.Getenv("BARTERDIST_SHARD_WORKERS")
	if v == "" {
		return 0
	}
	w, err := strconv.Atoi(v)
	if err != nil || w < 0 {
		b.Fatalf("BARTERDIST_SHARD_WORKERS=%q: want a non-negative integer", v)
	}
	return w
}

// BenchmarkScale20kCreditSmoke is one n=20k, k=64 randomized run under
// credit-limited barter (s=1) with tracing on — the scale smoke's
// configuration and the DESIGN.md §11.3 regime where the credit-starved
// exact pass used to burn ~40% of CPU in O(n) scans before the
// eligibility index replaced them. This is the credit s=1 hot-path
// number the BENCH_*-shard snapshots track across shard-worker widths.
func BenchmarkScale20kCreditSmoke(b *testing.B) {
	workers := benchShardWorkers(b)
	for i := 0; i < b.N; i++ {
		res, err := barterdist.Run(barterdist.Config{
			Nodes: 20000, Blocks: 64,
			Algorithm:    barterdist.AlgoRandomized,
			CreditLimit:  1,
			DownloadCap:  1,
			RecordTrace:  true,
			ShardWorkers: workers,
			Seed:         46000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.CompletionTime <= 0 {
			b.Fatal("no completion time")
		}
	}
}

// BenchmarkExactPass times credit-limited randomized runs (k = 64,
// s = 1, download cap 1, tracing on) and reports the scheduler's
// exact-pass counters per op: passes, index entries visited, entries
// skipped as saturated, and qualifiedIndexed rejections by reason
// (cap, credit, guard, in-flight). closed-credit is the _bench
// workload's shape, eight replicates at n = 2048 seeded like its reps;
// the n=N/wP sub-benchmarks are one run each at ShardWorkers P, whose
// wall times give the scaling exponent in n. Counters are identical
// for any P. One n = 80k run takes most of a minute on a 2-core host,
// so time the n=N sub-benchmarks with -benchtime 1x.
func BenchmarkExactPass(b *testing.B) {
	b.Run("closed-credit", func(b *testing.B) {
		benchExactPass(b, 2048, 8, benchShardWorkers(b))
	})
	for _, n := range []int{20000, 40000, 80000} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/w%d", n, w), func(b *testing.B) {
				benchExactPass(b, n, 1, w)
			})
		}
	}
}

func benchExactPass(b *testing.B, n, replicates, workers int) {
	var sum randomized.PassStats
	for i := 0; i < b.N; i++ {
		for r := 0; r < replicates; r++ {
			seed := uint64(46000) + uint64(r)*parallel.SeedStride
			sched, err := randomized.New(randomized.Options{
				CreditLimit: 1, DownloadCap: 1, Seed: seed, ShardWorkers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := simulate.Run(simulate.Config{
				Nodes: n, Blocks: 64, DownloadCap: 1, RecordTrace: true,
			}, sched)
			if err != nil {
				b.Fatal(err)
			}
			if res.CompletionTime <= 0 {
				b.Fatal("no completion time")
			}
			sum.Add(sched.PassStats())
		}
	}
	per := func(x int64) float64 { return float64(x) / float64(b.N) }
	b.ReportMetric(per(sum.Passes), "passes/op")
	b.ReportMetric(per(sum.Visited), "visited/op")
	b.ReportMetric(per(sum.Skipped), "skipped/op")
	b.ReportMetric(per(sum.RejectCap), "rej-cap/op")
	b.ReportMetric(per(sum.RejectCredit), "rej-credit/op")
	b.ReportMetric(per(sum.RejectGuard), "rej-guard/op")
	b.ReportMetric(per(sum.RejectInFlight), "rej-inflight/op")
}

// cannedScaleRun builds the n=20k, k=64 credit s=1 recorded run ONCE
// per process — the same configuration as BenchmarkScale20kCreditSmoke
// and the scale smoke test — so the audit-replay and trace-decode
// benchmarks measure pure verification cost, not simulation.
var cannedScaleRun = sync.OnceValue(func() *barterdist.Result {
	res, err := barterdist.Run(barterdist.Config{
		Nodes: 20000, Blocks: 64,
		Algorithm:   barterdist.AlgoRandomized,
		CreditLimit: 1,
		DownloadCap: 1,
		RecordTrace: true,
		Seed:        46000,
	})
	if err != nil {
		panic(err)
	}
	return res
})

// BenchmarkAuditReplay is the full verification pass over the canned
// 20k-peer trace: the engine-invariant replay (simulate.RunAudit) plus
// the credit s=1 mechanism check, one sequential pass each. The w1
// sub-benchmark name is kept so snapshots compare across commits that
// also measured a wider pair-lane width.
func BenchmarkAuditReplay(b *testing.B) {
	res := cannedScaleRun()
	b.Run("w1", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := simulate.RunAudit(res.SimConfig, res.Sim); err != nil {
				b.Fatal(err)
			}
			if err := mechanism.VerifyCreditLimited(res.Sim.Trace.Cursor(), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPairLedger records random client pairs, ids below 10^6 as
// in an n = 10^6 swarm, into a fresh mechanism.Ledger per iteration.
// B/pair is the heap the finished ledger retains per recorded pair:
// the per-pair cost of credit-limited barter's balances at that scale.
func BenchmarkPairLedger(b *testing.B) {
	const n = 1_000_000
	for _, tc := range []struct {
		name  string
		pairs int
	}{{"1M", 1_000_000}, {"8M", 8_000_000}} {
		b.Run("pairs="+tc.name, func(b *testing.B) {
			var retained uint64
			var ms runtime.MemStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.HeapAlloc
				rng := xrand.New(uint64(47000 + i))
				b.StartTimer()
				l, err := mechanism.NewLedger(1)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < tc.pairs; j++ {
					u := int32(1 + rng.Intn(n-1))
					v := int32(1 + rng.Intn(n-2))
					if v >= u {
						v++
					}
					l.Record(u, v)
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				retained += ms.HeapAlloc - before
				runtime.KeepAlive(l)
				b.StartTimer()
			}
			b.ReportMetric(float64(retained)/float64(b.N)/float64(tc.pairs), "B/pair")
		})
	}
}

// cannedTableDCell records both runs of one Table D cell ONCE per
// process — BitTorrent, then async rarest-first, on one random-regular
// graph (n=1024, k=512, degree 30, the cell's rep-0 seed) — so
// BenchmarkAsimAudit measures pure verification cost, not simulation.
var cannedTableDCell = sync.OnceValue(func() [2]*asim.Result {
	const n, k, d = 1024, 512, 30
	seed := uint64(9000 + n*31)
	g, err := graph.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	proto, err := bt.New(bt.Options{Graph: g, DownloadPorts: 1, Seed: seed})
	if err != nil {
		panic(err)
	}
	var cell [2]*asim.Result
	for i, p := range []asim.Protocol{proto, asim.NewAsyncRandomized(g, true, 1, seed)} {
		if cell[i], err = asim.Run(cannedTableDConfig, p); err != nil {
			panic(err)
		}
	}
	return cell
})

var cannedTableDConfig = asim.Config{Nodes: 1024, Blocks: 512, DownloadPorts: 1, RecordTrace: true}

// BenchmarkAsimAudit is the asynchronous engine's auditor: asim.RunAudit
// over both recorded runs of the canned Table D cell. transfers/s
// counts the trace records (deliveries and drops) replayed per second.
func BenchmarkAsimAudit(b *testing.B) {
	cell := cannedTableDCell()
	records := len(cell[0].Trace) + len(cell[1].Trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range cell {
			if err := asim.RunAudit(cannedTableDConfig, res); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "transfers/s")
}

// BenchmarkTraceAppend is the recording hot path: append one synthetic
// 256-transfer tick (with a few drops) per iteration into a kinded
// columnar log, sealing a compressed frame every 256 ticks. B/op is the
// number to watch — the frame-compressed log holds ~4.6 bytes per
// transfer at scale.
func BenchmarkTraceAppend(b *testing.B) {
	const perTick = 256
	ts := make([]trace.Transfer, perTick)
	for j := range ts {
		ts[j] = trace.Transfer{From: int32(j), To: int32(j + 1), Block: int32(j % 64)}
	}
	dropIdx := []int32{3, 100}
	dropKinds := []uint8{trace.KindFault, trace.KindRefused}
	l := trace.New(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AppendTick(ts, dropIdx, dropKinds)
	}
	if l.Len() != b.N*perTick {
		b.Fatal("bad append count")
	}
}

// BenchmarkTraceDecode walks the canned 20k-peer compressed trace end
// to end through the frame decode window — the read path every audit
// task and mechanism lane is built on.
func BenchmarkTraceDecode(b *testing.B) {
	l := cannedScaleRun().Sim.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w trace.Win
		sum := uint32(0)
		for j := 0; j < l.Len(); {
			from, to, block, base, end := l.Window(&w, j)
			stop := l.Len()
			if end < stop {
				stop = end
			}
			for ; j < stop; j++ {
				k := j - base
				sum += from[k] + to[k] + block[k]
			}
		}
		if sum == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkCdvetModule measures the whole-module gate exactly as
// `make lint` pays for it, through the entry point cmd/cdvet calls:
// load + type-check the module once, run all eight rules (the
// per-package walks, the interprocedural purity classification, the
// -gcflags=-m escape build) and compare against ANALYSIS.json. The
// escape build rides the Go build cache, so this is the warm cost —
// the one every pre-PR `make check` and the CI gate job actually spend.
func BenchmarkCdvetModule(b *testing.B) {
	root, err := filepath.Abs(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		report, err := lint.Gate(root, lint.AllAnalyzers(), false, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Findings) != 0 || len(report.Drift) != 0 {
			b.Fatalf("gate not clean on main: findings %v, drift %v", report.Findings, report.Drift)
		}
		if len(report.Purity.Functions) == 0 || len(report.Escape.Gates) == 0 {
			b.Fatal("empty analysis report")
		}
	}
}
