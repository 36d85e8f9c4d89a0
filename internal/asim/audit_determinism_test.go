package asim

import (
	"testing"

	"barterdist/internal/fault"
)

// TestAsimAuditWorkerInvariance replays a churny asynchronous run —
// and doctored variants of it — at AuditWorkers 1, 2, and 8 and
// requires byte-identical verdicts and error text. RunAudit is one
// sequential pass and AuditWorkers is deprecated and ignored; this pins
// that the knob, which callers still set, cannot change a verdict.
func TestAsimAuditWorkerInvariance(t *testing.T) {
	run := func() (Config, *Result) {
		plan, err := fault.NewPlan(fault.Options{
			Seed: 77, CrashRate: 0.05, MaxCrashes: 5,
			RejoinDelay: 5, RejoinLosesBlocks: true, LossRate: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Nodes: 24, Blocks: 16, DownloadPorts: 1, RecordTrace: true, Fault: plan}
		res, err := Run(cfg, NewAsyncRandomized(nil, false, 1, 9))
		if err != nil {
			t.Fatal(err)
		}
		return cfg, res
	}

	errString := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	matrix := func(t *testing.T, cfg Config, res *Result, wantPass bool) {
		cfg.Fault = nil
		cfg.AuditWorkers = 1
		base := errString(RunAudit(cfg, res))
		if wantPass && base != "<nil>" {
			t.Fatalf("pristine run failed audit: %s", base)
		}
		if !wantPass && base == "<nil>" {
			t.Fatalf("doctored run passed the audit")
		}
		for _, w := range []int{2, 8} {
			cfg.AuditWorkers = w
			if got := errString(RunAudit(cfg, res)); got != base {
				t.Errorf("AuditWorkers=%d verdict %q, sequential %q", w, got, base)
			}
		}
	}

	t.Run("pristine", func(t *testing.T) {
		cfg, res := run()
		matrix(t, cfg, res, true)
	})

	tamper := map[string]func(r *Result){
		"inflated delivery count": func(r *Result) { r.Transfers++ },
		"forged block id": func(r *Result) {
			r.Trace[len(r.Trace)/2].Block = int32(15)
			r.Trace[len(r.Trace)/2+1].Block = int32(15)
		},
		"out-of-range receiver":     func(r *Result) { r.Trace[len(r.Trace)/3].To = 99 },
		"stretched duration":        func(r *Result) { r.Trace[len(r.Trace)/4].End += 0.5 },
		"shifted client completion": func(r *Result) { r.ClientCompletion[3]++ },
		"forged fault log":          func(r *Result) { r.FaultLog[0].Node = 0 },
	}
	for name, mut := range tamper {
		t.Run(name, func(t *testing.T) {
			cfg, res := run()
			mut(res)
			matrix(t, cfg, res, false)
		})
	}
}
