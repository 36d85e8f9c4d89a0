package core

import (
	"testing"

	"barterdist/internal/mechanism"
	"barterdist/internal/simulate"
)

// auditWorkerWidths are the values the deprecated audit widths —
// Config.AuditWorkers and the workers argument of the mechanism Log
// wrappers — are set to. Both are ignored; these tests pin that no
// value can change a verdict. The verdicts themselves are pinned by
// TestMechanismGoldenVerdicts.
var auditWorkerWidths = []int{1, 2, 8}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// logVerdicts is what the mechanism Log wrappers report for one
// recorded trace at one width.
type logVerdicts struct {
	credit  string // mechanism.VerifyCreditLimitedLog s=1 (released view)
	minimal int    // mechanism.MinimalCreditLimitLog (full view)
}

func collectLogVerdicts(res *Result, w int) logVerdicts {
	return logVerdicts{
		credit:  errString(mechanism.VerifyCreditLimitedLog(res.Sim.Trace, true, 1, w)),
		minimal: mechanism.MinimalCreditLimitLog(res.Sim.Trace, false, w),
	}
}

// checkLogVerdicts requires the Log wrappers to match the cursor forms
// at every width.
func checkLogVerdicts(t *testing.T, res *Result) {
	t.Helper()
	want := logVerdicts{
		credit:  errString(mechanism.VerifyCreditLimited(res.Sim.Trace.ReleasedCursor(), 1)),
		minimal: mechanism.MinimalCreditLimit(res.Sim.Trace.Cursor()),
	}
	for _, w := range auditWorkerWidths {
		if got := collectLogVerdicts(res, w); got != want {
			t.Errorf("workers=%d: Log wrappers %+v, cursor forms %+v", w, got, want)
		}
	}
}

// TestAuditWorkerInvarianceMatrix runs every mechanismScenarios config
// at AuditWorkers 1, 2, and 8 under credit s = 1 verification, and
// requires the same minimal credit limit and Verify error at every
// width; the mechanism Log wrappers must match the cursor forms at
// every width argument.
func TestAuditWorkerInvarianceMatrix(t *testing.T) {
	for name, cfg := range mechanismScenarios {
		t.Run(name, func(t *testing.T) {
			var base *Result
			var baseErr string
			for _, w := range auditWorkerWidths {
				cfg := cfg
				cfg.AuditWorkers = w
				cfg.Verify = MechanismCredit
				res, err := Run(cfg)
				if res == nil {
					t.Fatal(err)
				}
				if base == nil {
					base, baseErr = res, errString(err)
					continue
				}
				if got := errString(err); got != baseErr {
					t.Errorf("AuditWorkers=%d: Verify %q, AuditWorkers=%d %q", w, got, auditWorkerWidths[0], baseErr)
				}
				if res.MinimalCreditLimit != base.MinimalCreditLimit {
					t.Errorf("AuditWorkers=%d: minimal credit %d, AuditWorkers=%d %d", w, res.MinimalCreditLimit, auditWorkerWidths[0], base.MinimalCreditLimit)
				}
			}
			checkLogVerdicts(t, base)
		})
	}
}

// TestAuditWorkerInvarianceDoctored requires the mechanism Log
// wrappers to match the cursor forms at every width argument on the
// doctored churn runs of the golden corpus.
func TestAuditWorkerInvarianceDoctored(t *testing.T) {
	cfg := mechanismScenarios["churn"]
	for _, name := range mechanismTampers {
		t.Run(name, func(t *testing.T) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !goldenTampers[name](res.Sim, res.SimConfig) {
				t.Fatalf("tamper %q does not apply", name)
			}
			if simulate.RunAudit(res.SimConfig, res.Sim) == nil {
				t.Fatalf("doctored run passed the audit")
			}
			checkLogVerdicts(t, res)
		})
	}
}
