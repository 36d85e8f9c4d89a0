package experiment

import (
	"errors"
	"fmt"

	"barterdist/internal/analysis"
	"barterdist/internal/core"
	"barterdist/internal/fault"
	"barterdist/internal/parallel"
	"barterdist/internal/randomized"
	"barterdist/internal/simulate"
)

func tableEParams(sc Scale) (n, k int, rates []float64, reps int) {
	switch sc {
	case ScaleFull:
		return 128, 128, []float64{0, 0.002, 0.01, 0.03, 0.1}, 4
	case ScaleMedium:
		return 64, 64, []float64{0, 0.005, 0.02, 0.05}, 3
	default:
		return 24, 24, []float64{0, 0.01, 0.05}, 2
	}
}

// churnLoss is the fixed per-transfer loss probability applied to every
// nonzero-churn row, so each cell exercises both adversity channels.
const churnLoss = 0.02

// TableE measures completion time versus churn rate — the robustness
// question the paper's static analysis (Section 2.3.4) leaves open.
// Rows sweep the Poisson crash rate (crashed clients rejoin wiped after
// 10 ticks; every nonzero row also drops 2% of transfers); columns
// compare the scheduler families:
//
//   - the randomized cooperative algorithm (Random and Rarest-First),
//     which re-samples around dead peers and should degrade gracefully
//     (cf. Sanghavi–Hajek–Massoulié on gossip under perturbation);
//   - the randomized algorithm under credit-limited barter (s = 1),
//     where a wiped peer also loses its ability to reciprocate — the
//     strictest mechanism and the expected worst degrader;
//   - triangular barter (Section 3.3). Why it collapses under churn is
//     not yet measured: a probe of nine runs of this column settled
//     zero held cycles, so settlement cycles do not explain it;
//   - the deterministic Binomial and Riffle Pipelines wrapped in
//     schedule.SelfHeal (survivor re-embedding with chain fallback).
//
// Every completed run is recorded and replayed through
// simulate.RunAudit; an invariant violation fails the experiment. The
// (rate, column, replicate) grid — including the audit replays — fans
// out over the worker pool; cells aggregate sequentially, so the table
// is identical for any Workers value.
func TableE(sc Scale, opt Options) (*Table, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n, k, rates, reps := tableEParams(sc)
	maxTicks := 8*(n+k) + 200
	type column struct {
		label string
		cfg   core.Config
	}
	cols := []column{
		{"randomized", core.Config{Algorithm: core.AlgoRandomized}},
		{"rarest-first", core.Config{Algorithm: core.AlgoRandomized, Policy: randomized.RarestFirst}},
		{"credit s=1", core.Config{Algorithm: core.AlgoRandomized, CreditLimit: 1}},
		{"triangular", core.Config{Algorithm: core.AlgoTriangular}},
		{"binomial+heal", core.Config{Algorithm: core.AlgoBinomialPipeline}},
		{"riffle+heal", core.Config{Algorithm: core.AlgoRiffle}},
	}
	tbl := &Table{
		ID:    "tableE",
		Title: fmt.Sprintf("Completion time vs churn rate (n=%d, k=%d, optimal %d)", n, k, analysis.CooperativeLowerBound(n, k)),
		Header: append([]string{"crash rate"}, func() []string {
			labels := make([]string, len(cols))
			for i, c := range cols {
				labels[i] = c.label
			}
			return labels
		}()...),
		Notes: []string{
			"crashed clients rejoin wiped after 10 ticks; nonzero rows also lose 2% of transfers",
			fmt.Sprintf("cells are mean completion ticks over %d seeds; 'stall' = exceeded %d ticks", reps, maxTicks),
			"every completed run is replayed through simulate.RunAudit",
			"expected: unconstrained randomized degrades gracefully; barter-constrained runs stall hardest",
		},
	}
	prog := opt.Progress.Serialized()
	store, err := opt.openStore()
	if err != nil {
		return nil, err
	}
	defer store.close()
	type outcome struct {
		Stalled bool    `json:"stalled,omitempty"`
		Ticks   float64 `json:"ticks"`
	}
	// Flat job index: ((rate, col), rep), matching the sequential
	// aggregation below.
	perRate := len(cols) * reps
	outs, err := parallel.Map(opt.workers(), len(rates)*perRate, func(j int) (outcome, error) {
		rate := rates[j/perRate]
		ci := (j % perRate) / reps
		rep := j % reps
		if ci == 0 && rep == 0 {
			prog.log("tableE: crash rate %g", rate)
		}
		cfg := cols[ci].cfg
		cfg.Nodes, cfg.Blocks = n, k
		cfg.Seed = uint64(4000 + 100*ci + rep)
		cfg.RecordTrace = true
		cfg.MaxTicks = maxTicks
		if rate > 0 {
			cfg.Fault = &fault.Options{
				Seed:              uint64(7000 + 100*ci + rep),
				CrashRate:         rate,
				MaxCrashes:        n / 4,
				RejoinDelay:       10,
				RejoinLosesBlocks: true,
				LossRate:          churnLoss,
			}
		}
		// A cached cell skips RunAudit along with the simulation — the
		// audit already passed when the cell was first computed and
		// recorded, so replaying it would re-verify an identical trace.
		tag := fmt.Sprintf("tableE: %s rate=%g", cols[ci].label, rate)
		return cellCached(store, tag, cfg.Seed, rep, func() (outcome, error) {
			res, err := core.Run(cfg)
			if errors.Is(err, core.ErrStalled) {
				return outcome{Stalled: true}, nil
			}
			if err != nil {
				return outcome{}, fmt.Errorf("tableE %s rate=%g: %w", cols[ci].label, rate, err)
			}
			if aerr := simulate.RunAudit(res.SimConfig, res.Sim); aerr != nil {
				return outcome{}, fmt.Errorf("tableE %s rate=%g: %w", cols[ci].label, rate, aerr)
			}
			return outcome{Ticks: float64(res.CompletionTime)}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	for ri, rate := range rates {
		row := []string{fmt.Sprintf("%g", rate)}
		for ci := range cols {
			sum, done, stalls := 0.0, 0, 0
			for rep := 0; rep < reps; rep++ {
				o := outs[ri*perRate+ci*reps+rep]
				if o.Stalled {
					stalls++
					continue
				}
				sum += o.Ticks
				done++
			}
			switch {
			case done == 0:
				row = append(row, "stall")
			case stalls > 0:
				row = append(row, fmt.Sprintf("%.1f (%d stall)", sum/float64(done), stalls))
			default:
				row = append(row, fmt.Sprintf("%.1f", sum/float64(done)))
			}
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}
