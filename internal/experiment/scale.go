package experiment

import (
	"errors"
	"fmt"
	"time"

	"barterdist/internal/analysis"
	"barterdist/internal/core"
	"barterdist/internal/mechanism"
	"barterdist/internal/parallel"
	"barterdist/internal/simulate"
)

// This file holds the large-n scale-out capstone: completion time T
// versus swarm size n for the randomized algorithm under credit-limited
// barter (s = 1) on the complete graph, with tracing ON — the regime
// where the paper's asymptotic claims (T = k + O(log n), price of
// barter) meet the engine's memory model. The full scale runs a single
// in-process n = 100k, k = 64 simulation whose recorded columnar trace
// is the acceptance artifact for the streaming-trace work; the table
// reports each point's trace footprint so EXPERIMENTS.md can pair the
// deterministic output with externally measured peak-RSS and ns/tick.

// tableScaleParams selects the sweep. k is fixed (the paper's T ≈
// k + c·log2 n form makes n the interesting axis) and replication
// shrinks as n grows: the CI at n = 10^5 is dominated by the bound
// ratio, not run-to-run spread.
func tableScaleParams(sc Scale) (ns []int, k int, repsFor func(n int) int) {
	switch sc {
	case ScaleFull:
		return []int{1000, 10000, 100000, 1000000}, 64, func(n int) int {
			switch {
			case n <= 1000:
				return 3
			case n <= 10000:
				return 2
			default:
				return 1
			}
		}
	case ScaleMedium:
		return []int{1000, 10000}, 64, func(n int) int {
			if n <= 1000 {
				return 3
			}
			return 1
		}
	default: // ScaleCI
		return []int{128, 512}, 16, func(int) int { return 2 }
	}
}

// scaleOutcome is one replicate's observables. Everything here is a
// deterministic function of the replicate seed — including the trace
// footprint, whose column capacities are fixed by the Reserve hints and
// the (seeded) append sequence — so the table stays byte-identical for
// any worker count, and caching a cell in the checkpoint store (the
// fields are exported for exactly that JSON round-trip) returns the
// same bytes a recompute would.
type scaleOutcome struct {
	Ticks      float64 `json:"ticks"`
	Stalled    bool    `json:"stalled,omitempty"`
	Optimal    int     `json:"optimal"`
	Transfers  int     `json:"transfers"`
	TraceBytes int     `json:"traceBytes"`
}

// shardOutcome is one shard-sweep run: the deterministic observables
// plus the one measured quantity in the whole table, wall-clock
// seconds. Wall time is cached alongside the run so an interrupted
// full-scale sweep resumes with its measurement intact, and it is
// rendered only outside CI scale, where the table must stay
// byte-identical across reruns.
type shardOutcome struct {
	scaleOutcome
	WallSeconds float64 `json:"wallSeconds"`
	// Audit wall-clock, measured on the P = 1 capstone pass only: the
	// RunAudit replay of the recorded trace, then the credit s = 1
	// check. CreditWall keeps the JSON name creditWall1 so cells cached
	// by earlier editions still decode; their creditWall8 is ignored.
	ReplayWall float64 `json:"replayWall,omitempty"`
	CreditWall float64 `json:"creditWall1,omitempty"`
}

// shardSweepWorkers is the shard-scaling column: the largest row of the
// selected scale is re-run at these ShardWorkers widths, sequentially
// (a wall-clock measurement must not share the machine with the rest of
// the sweep), and the completion times must agree byte for byte — the
// tentpole's determinism contract, asserted on the capstone row itself.
var shardSweepWorkers = [3]int{1, 4, 8}

// runShardSweep runs the (n, rep 0) cell at each sweep width. The P = 1
// run doubles as the row's replicate-0 outcome, and — being the
// capstone artifact — is audited: the full recorded trace must replay
// clean through RunAudit and satisfy the credit s = 1 mechanism.
func runShardSweep(store *cellStore, prog Progress, n, k int) ([len(shardSweepWorkers)]shardOutcome, error) {
	var sweep [len(shardSweepWorkers)]shardOutcome
	for i, p := range shardSweepWorkers {
		p := p
		prog.log("tableScale: shard sweep n=%d k=%d credit=1 P=%d", n, k, p)
		tag := fmt.Sprintf("tableScale/shard: n=%d k=%d credit=1 P=%d", n, k, p)
		out, err := cellCached(store, tag, uint64(26000+n), 0, func() (shardOutcome, error) {
			cfg := core.Config{
				Nodes: n, Blocks: k,
				Algorithm:    core.AlgoRandomized,
				CreditLimit:  1,
				DownloadCap:  1,
				RecordTrace:  true,
				ShardWorkers: p,
				Seed:         uint64(26000 + n),
			}
			start := time.Now()
			res, err := core.Run(cfg)
			wall := time.Since(start).Seconds()
			if err != nil {
				return shardOutcome{}, fmt.Errorf("tableScale: shard sweep n=%d P=%d: %w", n, p, err)
			}
			out := shardOutcome{
				scaleOutcome: scaleOutcome{
					Ticks:      float64(res.CompletionTime),
					Optimal:    res.OptimalTime,
					Transfers:  res.Sim.TotalTransfers,
					TraceBytes: res.Sim.Trace.MemSize(),
				},
				WallSeconds: wall,
			}
			if p == 1 {
				// The capstone audit: the engine replay, then the
				// credit check.
				start := time.Now()
				if err := simulate.RunAudit(res.SimConfig, res.Sim); err != nil {
					return shardOutcome{}, fmt.Errorf("tableScale: n=%d RunAudit: %w", n, err)
				}
				out.ReplayWall = time.Since(start).Seconds()
				start = time.Now()
				if err := mechanism.VerifyCreditLimited(res.Sim.Trace.Cursor(), cfg.CreditLimit); err != nil {
					return shardOutcome{}, fmt.Errorf("tableScale: n=%d VerifyCreditLimited: %w", n, err)
				}
				out.CreditWall = time.Since(start).Seconds()
			}
			return out, nil
		})
		if err != nil {
			return sweep, err
		}
		sweep[i] = out
		if out.Ticks != sweep[0].Ticks || out.Transfers != sweep[0].Transfers {
			return sweep, fmt.Errorf("tableScale: shard sweep n=%d: P=%d diverged from P=%d (T %g vs %g, transfers %d vs %d)",
				n, p, shardSweepWorkers[0], out.Ticks, sweep[0].Ticks, out.Transfers, sweep[0].Transfers)
		}
	}
	return sweep, nil
}

// TableScale reproduces the scale-out table: T vs n for the randomized
// algorithm with credit limit s = 1 on the complete graph, k fixed,
// RecordTrace on. Columns report the cooperative bound k−1+⌈log2 n⌉
// (Theorem 1), the ratio T/bound, and the first replicate's transfer
// count and columnar-trace heap footprint.
func TableScale(sc Scale, opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ns, k, repsFor := tableScaleParams(sc)
	prog := opt.Progress.Serialized()
	// The scale capstone is the single most expensive cell in the whole
	// harness (n = 100k with tracing on runs for the better part of an
	// hour), so it is exactly where per-point checkpointing pays: an
	// interrupted full-scale sweep resumes with every finished n cached.
	store, err := opt.openStore()
	if err != nil {
		return nil, err
	}
	defer store.close()

	// The largest n carries the shard-scaling column: its replicate 0 is
	// run by the sequential sweep below (the P = 1 pass doubles as the
	// row outcome), so it is excluded from the parallel job list.
	shardN := ns[len(ns)-1]
	specOf := make([]int32, 0, 8) // flat job index -> index into ns
	repOf := make([]int32, 0, 8)  // flat job index -> replicate
	for si, n := range ns {
		for r := 0; r < repsFor(n); r++ {
			if n == shardN && r == 0 {
				continue
			}
			specOf = append(specOf, int32(si))
			repOf = append(repOf, int32(r))
		}
	}
	outcomes, err := parallel.Map(opt.workers(), len(specOf), func(j int) (scaleOutcome, error) {
		n := ns[specOf[j]]
		rep := int(repOf[j])
		if rep == 0 {
			prog.log("tableScale: n=%d k=%d credit=1", n, k)
		}
		cfg := core.Config{
			Nodes: n, Blocks: k,
			Algorithm:   core.AlgoRandomized,
			CreditLimit: 1,
			DownloadCap: 1,
			RecordTrace: true,
			Seed:        uint64(26000+n) + uint64(rep)*parallel.SeedStride,
		}
		tag := fmt.Sprintf("tableScale: n=%d k=%d credit=1", n, k)
		return cellCached(store, tag, uint64(26000+n), rep, func() (scaleOutcome, error) {
			res, err := core.Run(cfg)
			switch {
			case err == nil:
				return scaleOutcome{
					Ticks:      float64(res.CompletionTime),
					Optimal:    res.OptimalTime,
					Transfers:  res.Sim.TotalTransfers,
					TraceBytes: res.Sim.Trace.MemSize(),
				}, nil
			case errors.Is(err, core.ErrStalled):
				return scaleOutcome{Ticks: float64(cfg.MaxTicks), Stalled: true}, nil
			default:
				return scaleOutcome{}, fmt.Errorf("tableScale: n=%d rep=%d: %w", n, rep, err)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	sweep, err := runShardSweep(store, prog, shardN, k)
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:    "tableScale",
		Title: fmt.Sprintf("Scale-out: randomized + credit s=1, complete graph, k=%d, tracing on", k),
		Header: []string{"n", "mean T", "ci95", "reps", "bound k-1+ceil(log2 n)",
			"T/bound", "transfers", "trace MiB", "T P=1/4/8", "wall s P=1/4/8",
			"audit s replay+credit"},
	}
	j := 0
	for _, n := range ns {
		reps := repsFor(n)
		times := make([]float64, 0, reps)
		stalled := 0
		var first scaleOutcome // replicate 0: footprint/bound exemplar
		for r := 0; r < reps; r++ {
			var o scaleOutcome
			if n == shardN && r == 0 {
				o = sweep[0].scaleOutcome
			} else {
				o = outcomes[j]
				j++
			}
			if r == 0 {
				first = o
			}
			times = append(times, o.Ticks)
			if o.Stalled {
				stalled++
			}
		}
		sum, err := analysis.Summarize(times)
		if err != nil {
			return nil, fmt.Errorf("tableScale: n=%d: %w", n, err)
		}
		ratio := "-"
		if first.Optimal > 0 {
			ratio = fmt.Sprintf("%.3f", sum.Mean/float64(first.Optimal))
		}
		shardT, shardWall, auditWall := "-", "-", "-"
		if n == shardN {
			shardT = fmt.Sprintf("%.0f/%.0f/%.0f", sweep[0].Ticks, sweep[1].Ticks, sweep[2].Ticks)
			if sc != ScaleCI {
				// The measured (non-deterministic) values in the table;
				// CI scale keeps them out so generator output stays
				// byte-reproducible.
				shardWall = fmt.Sprintf("%.0f/%.0f/%.0f",
					sweep[0].WallSeconds, sweep[1].WallSeconds, sweep[2].WallSeconds)
				auditWall = fmt.Sprintf("%.1f+%.1f", sweep[0].ReplayWall, sweep[0].CreditWall)
			}
		}
		row := []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.2f", sum.Mean),
			fmt.Sprintf("%.2f", sum.CI95),
			fmt.Sprint(reps),
			fmt.Sprint(first.Optimal),
			ratio,
			fmt.Sprint(first.Transfers),
			fmt.Sprintf("%.1f", float64(first.TraceBytes)/(1<<20)),
			shardT,
			shardWall,
			auditWall,
		}
		if stalled > 0 {
			row[1] = fmt.Sprintf(">=%.0f (stalled %d/%d)", sum.Mean, stalled, reps)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	tbl.Notes = []string{
		"T vs n at fixed k: the coop bound is k-1+ceil(log2 n), so T/bound -> 1 is the",
		"paper's asymptotic claim; credit s=1 pays a constant-factor barter premium.",
		"transfers and trace MiB come from replicate 0; peak-RSS and ns/tick are",
		"measured outside the generator (see EXPERIMENTS.md scale section).",
		"The largest row is re-run at ShardWorkers P=1/4/8 sequentially: T must be",
		"identical (asserted), wall-clock is measured and machine-dependent; the P=1",
		"pass replays clean through RunAudit (one sequential pass) and then",
		"VerifyCreditLimitedLog at pair-lane widths 1 and 8 (byte-identical verdicts,",
		"all three walls reported) before reporting.",
	}
	return tbl, nil
}
