package core

import (
	"fmt"
	"strings"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/fault"
	"barterdist/internal/parallel"
)

// fingerprint serializes everything observable about a run — the full
// transfer trace, the fault log, completion data, and the credit
// metrics — into one string, so two runs can be compared byte for
// byte.
func fingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completion=%d optimal=%d strict=%d eff=%.17g mincredit=%d overlay=%q\n",
		res.CompletionTime, res.OptimalTime, res.StrictBarterBound,
		res.Efficiency, res.MinimalCreditLimit, res.Overlay)
	sim := res.Sim
	fmt.Fprintf(&b, "clients=%v lost=%d corrupt=%d useful=%d total=%d\n",
		sim.ClientCompletion, sim.LostTransfers, sim.CorruptTransfers,
		sim.UsefulTransfers, sim.TotalTransfers)
	for t, ts := range sim.Trace.Materialize() {
		fmt.Fprintf(&b, "t%d:", t)
		for _, tr := range ts {
			fmt.Fprintf(&b, " %d->%d#%d", tr.From, tr.To, tr.Block)
		}
		b.WriteByte('\n')
	}
	for _, ev := range sim.FaultLog {
		fmt.Fprintf(&b, "fault t=%.17g node=%d kind=%d\n", ev.Time, ev.Node, ev.Kind)
	}
	drops, kinds := sim.Trace.MaterializeDrops()
	for t, lost := range drops {
		if len(lost) == 0 {
			continue
		}
		fmt.Fprintf(&b, "lost t%d:%v", t, lost)
		if kinds != nil {
			fmt.Fprintf(&b, " kinds=%v", kinds[t])
		}
		b.WriteByte('\n')
	}
	if sim.Strategies != nil {
		fmt.Fprintf(&b, "strategies=%v refused=%d stalled=%d advcorrupt=%d huseful=%d hwasted=%d\n",
			sim.Strategies, sim.AdvRefused, sim.AdvStalled, sim.AdvCorrupt,
			sim.HonestUseful, sim.HonestWasted)
	}
	return b.String()
}

// TestCrossEngineDeterminism is the dynamic twin of cmd/cdvet's
// static rules: a seeded randomized, triangular, and fault-injected
// deterministic scenario each run twice must produce byte-identical
// traces. If a map-order or wall-clock dependency sneaks past the
// linter (e.g. through a //lint:ordered annotation that was wrong),
// this test catches it at runtime.
func TestCrossEngineDeterminism(t *testing.T) {
	faultOpts := &fault.Options{
		Seed:              77,
		CrashRate:         0.08,
		MaxCrashes:        3,
		RejoinDelay:       4,
		RejoinLosesBlocks: true,
		LossRate:          0.05,
		Victim:            fault.VictimUniform,
	}
	advOpts := &adversary.Options{
		Seed:                99,
		FreeRiderFrac:       0.15,
		ThrottlerFrac:       0.1,
		FalseAdvertiserFrac: 0.1,
		CorrupterFrac:       0.1,
		DefectorFrac:        0.05,
	}
	scenarios := map[string]Config{
		"randomized+overlay+fault": {
			Nodes: 24, Blocks: 12,
			Algorithm: AlgoRandomized,
			Overlay:   OverlayRandomRegular,
			Degree:    6,
			Seed:      42,
			Fault:     faultOpts,
		},
		"triangular+fault": {
			Nodes: 20, Blocks: 10,
			Algorithm:   AlgoTriangular,
			Overlay:     OverlayRandomRegular,
			Degree:      6,
			CreditLimit: 2,
			Seed:        7,
			Fault:       faultOpts,
		},
		"binomial-pipeline+selfheal": {
			Nodes: 18, Blocks: 9,
			Algorithm: AlgoBinomialPipeline,
			Seed:      5,
			Fault:     faultOpts,
		},
		// Mixed fault + adversary: the quarantine tables, strike
		// backoffs, and credit clawbacks must all be replayable — a
		// wall-clock or map-order dependency in any of them would
		// diverge here.
		"randomized+credit+adversary+fault": {
			Nodes: 24, Blocks: 12,
			Algorithm:   AlgoRandomized,
			CreditLimit: 1,
			Seed:        13,
			Fault:       faultOpts,
			Adversary:   advOpts,
		},
		"triangular+adversary+fault": {
			Nodes: 20, Blocks: 10,
			Algorithm:   AlgoTriangular,
			CreditLimit: 1,
			Seed:        17,
			Fault:       faultOpts,
			Adversary:   advOpts,
		},
	}
	for name, cfg := range scenarios {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.RecordTrace = true
			run := func() string {
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return fingerprint(res)
			}
			first, second := run(), run()
			if first != second {
				t.Fatalf("two seeded runs diverged:\n--- first ---\n%s\n--- second ---\n%s",
					head(first, 30), head(second, 30))
			}
		})
	}
}

// TestParallelRunnerDeterminism extends the cross-engine determinism
// guarantee to the worker pool: a batch of seeded runs fanned out over
// parallel.Map at several pool widths must collect fingerprints that
// are byte-identical to the sequential (workers=1) pass. This is the
// dynamic contract behind the experiment package's Workers knob — each
// replicate's seed is pre-derived with parallel.SeedStride, so worker
// scheduling can never leak into a trace.
func TestParallelRunnerDeterminism(t *testing.T) {
	const batch = 12
	cfgFor := func(i int) Config {
		cfg := Config{
			Nodes: 16 + i, Blocks: 8,
			Algorithm: AlgoRandomized, DownloadCap: 1,
			RecordTrace: true,
			Seed:        1000 + uint64(i)*parallel.SeedStride,
		}
		if i%3 == 1 {
			cfg.Fault = &fault.Options{
				Seed: 77 + uint64(i), CrashRate: 0.08, MaxCrashes: 2,
				RejoinDelay: 4, LossRate: 0.05,
			}
		}
		if i%3 == 2 {
			// Adversarial replicates: quarantine bookkeeping must be as
			// schedulable-anywhere as the clean runs.
			cfg.CreditLimit = 1
			cfg.Adversary = &adversary.Options{
				Seed:          99 + uint64(i),
				FreeRiderFrac: 0.2,
				CorrupterFrac: 0.1,
			}
		}
		return cfg
	}
	run := func(workers int) []string {
		prints, err := parallel.Map(workers, batch, func(i int) (string, error) {
			res, err := Run(cfgFor(i))
			if err != nil {
				return "", err
			}
			return fingerprint(res), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return prints
	}
	want := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d run %d diverged from sequential:\n--- sequential ---\n%s\n--- workers=%d ---\n%s",
					w, i, head(want[i], 20), w, head(got[i], 20))
			}
		}
	}
}

// TestColumnarMatchesNestedRepresentation pins the columnar trace to
// the historical nested [][]Transfer shape: the streaming-cursor
// fingerprint must equal one computed from Materialize/MaterializeDrops
// (byte for byte), so the storage change can never leak into any
// consumer that fingerprints, audits, or verifies a trace.
func TestColumnarMatchesNestedRepresentation(t *testing.T) {
	cfgs := []Config{
		{Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, Seed: 42,
			Fault: &fault.Options{Seed: 77, CrashRate: 0.08, MaxCrashes: 3, RejoinDelay: 4, LossRate: 0.05}},
		{Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, CreditLimit: 1, Seed: 13,
			Adversary: &adversary.Options{Seed: 99, FreeRiderFrac: 0.2, CorrupterFrac: 0.1}},
		{Nodes: 16, Blocks: 8, Algorithm: AlgoBinomialPipeline, Seed: 2},
	}
	for i, cfg := range cfgs {
		cfg.RecordTrace = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		sim := res.Sim
		var b strings.Builder
		for ti, tick := range sim.Trace.Materialize() {
			fmt.Fprintf(&b, "t%d:", ti)
			for _, tr := range tick {
				fmt.Fprintf(&b, " %d->%d#%d", tr.From, tr.To, tr.Block)
			}
			b.WriteByte('\n')
		}
		drops, kinds := sim.Trace.MaterializeDrops()
		for ti, lost := range drops {
			if len(lost) == 0 {
				continue
			}
			fmt.Fprintf(&b, "lost t%d:%v", ti, lost)
			if kinds != nil {
				fmt.Fprintf(&b, " kinds=%v", kinds[ti])
			}
			b.WriteByte('\n')
		}
		nested := b.String()

		b.Reset()
		var lost strings.Builder
		cur := sim.Trace.Cursor()
		for cur.NextTick() {
			fmt.Fprintf(&b, "t%d:", cur.Tick()-1)
			var li []int
			var lk []uint8
			for cur.NextSpan() {
				s := cur.Span()
				for j := range s.From {
					fmt.Fprintf(&b, " %d->%d#%d", int32(s.From[j]), int32(s.To[j]), int32(s.Block[j]))
				}
				if s.Dropped {
					li, lk = append(li, s.Index), append(lk, s.Kind)
				}
			}
			b.WriteByte('\n')
			if len(li) == 0 {
				continue
			}
			fmt.Fprintf(&lost, "lost t%d:%v", cur.Tick()-1, li)
			if sim.Trace.Kinded() {
				fmt.Fprintf(&lost, " kinds=%v", lk)
			}
			lost.WriteByte('\n')
		}
		b.WriteString(lost.String())
		if got := b.String(); got != nested {
			t.Fatalf("cfg %d: cursor view diverges from materialized view:\n--- nested ---\n%s\n--- cursor ---\n%s",
				i, head(nested, 20), head(got, 20))
		}
	}
}

// head returns at most n lines of s, for readable failure output.
func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
		lines = append(lines, "…")
	}
	return strings.Join(lines, "\n")
}
