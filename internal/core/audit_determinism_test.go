package core

import (
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/fault"
	"barterdist/internal/mechanism"
	"barterdist/internal/simulate"
)

// auditWorkerWidths is the worker matrix every mechanism verdict must
// be byte-identical across — the pair-lane verifiers' determinism
// contract. Width 1 is the inline sequential path, so agreement across
// the matrix also proves agreement with sequential replay.
// simulate.RunAudit is a single sequential pass with no width; its
// reference is the golden corpus of TestRunAuditGoldenErrors.
var auditWorkerWidths = []int{1, 2, 8}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// auditVerdicts is everything the mechanism verifiers report for one
// recorded trace at one worker width.
type auditVerdicts struct {
	strict  string // mechanism.VerifyStrictBarterLog (released view)
	credit  string // mechanism.VerifyCreditLimitedLog s=1 (released view)
	minimal int    // mechanism.MinimalCreditLimitLog (full view)
	starve  string // mechanism.VerifyStarvationLog s=1 (adversarial runs)
}

func collectVerdicts(res *Result, w int) auditVerdicts {
	v := auditVerdicts{
		strict:  errString(mechanism.VerifyStrictBarterLog(res.Sim.Trace, true, w)),
		credit:  errString(mechanism.VerifyCreditLimitedLog(res.Sim.Trace, true, 1, w)),
		minimal: mechanism.MinimalCreditLimitLog(res.Sim.Trace, false, w),
	}
	if res.Sim.Strategies != nil {
		v.starve = errString(mechanism.VerifyStarvationLog(res.Sim, 1, w))
	}
	return v
}

// TestAuditWorkerInvarianceMatrix runs every mechanism verifier at
// AuditWorkers 1, 2, and 8 over churny, adversarial, credit-limited,
// and open-system traces and requires byte-identical verdicts and
// error text everywhere. The cursor-based sequential verifiers are
// held to the same string, so the parallel Log forms can never drift
// from the reference.
func TestAuditWorkerInvarianceMatrix(t *testing.T) {
	scenarios := map[string]Config{
		"churn": {
			Nodes: 24, Blocks: 16, Algorithm: AlgoRandomized, Seed: 7, RecordTrace: true,
			Fault: &fault.Options{
				Seed: 1001, CrashRate: 0.02, MaxCrashes: 4,
				RejoinDelay: 8, RejoinLosesBlocks: true, LossRate: 0.05,
			},
		},
		// Plain randomized violates strict barter and credit s=1, so
		// this scenario pins the verifiers' violation text, not just
		// their nil verdicts.
		"plain-randomized": {
			Nodes: 20, Blocks: 12, Algorithm: AlgoRandomized, Seed: 3, RecordTrace: true,
		},
		"credit-s1": {
			Nodes: 24, Blocks: 16, Algorithm: AlgoRandomized, CreditLimit: 1,
			Seed: 5, RecordTrace: true,
		},
		// Without barter the free-riders leech: the starvation verifier
		// must report the same violating pair at every width.
		"adversary-no-barter": {
			Nodes: 32, Blocks: 16, Algorithm: AlgoRandomized, Seed: 11, RecordTrace: true,
			Adversary: &adversary.Options{
				Seed: 2001, FreeRiderFrac: 0.2, FalseAdvertiserFrac: 0.1, CorrupterFrac: 0.1,
			},
		},
		"adversary-credit-s1": {
			Nodes: 32, Blocks: 16, Algorithm: AlgoRandomized, CreditLimit: 1,
			Seed: 11, RecordTrace: true,
			Adversary: &adversary.Options{
				Seed: 2002, FreeRiderFrac: 0.2, FalseAdvertiserFrac: 0.1, CorrupterFrac: 0.1,
			},
		},
		"open-system": {
			Nodes: 24, Blocks: 8, Algorithm: AlgoRandomized, Seed: 9, RecordTrace: true,
			Arrivals: &arrival.Options{Seed: 7, Rate: 0.5},
		},
	}
	for name, cfg := range scenarios {
		t.Run(name, func(t *testing.T) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := collectVerdicts(res, 1)
			for _, w := range auditWorkerWidths[1:] {
				if got := collectVerdicts(res, w); got != base {
					t.Errorf("AuditWorkers=%d verdicts diverge from sequential:\n got %+v\nwant %+v", w, got, base)
				}
			}
			// The cursor-based sequential verifiers are the reference
			// the Log forms must reproduce byte for byte.
			if ref := errString(mechanism.VerifyStrictBarter(res.Sim.Trace.ReleasedCursor())); ref != base.strict {
				t.Errorf("strict barter: Log form %q, cursor reference %q", base.strict, ref)
			}
			if ref := errString(mechanism.VerifyCreditLimited(res.Sim.Trace.ReleasedCursor(), 1)); ref != base.credit {
				t.Errorf("credit s=1: Log form %q, cursor reference %q", base.credit, ref)
			}
			if ref := mechanism.MinimalCreditLimit(res.Sim.Trace.Cursor()); ref != base.minimal {
				t.Errorf("minimal credit: Log form %d, cursor reference %d", base.minimal, ref)
			}
			if res.Sim.Strategies != nil {
				if ref := errString(mechanism.VerifyStarvation(res.Sim, 1)); ref != base.starve {
					t.Errorf("starvation: Log form %q, cursor reference %q", base.starve, ref)
				}
			}
		})
	}
}

// TestAuditWorkerInvarianceDoctored doctors a churny recorded run six
// ways and requires the mechanism verifiers to return the exact same
// verdicts at every worker width — the lowest-key merge must reproduce
// the sequential first violation even on broken traces, where spurious
// downstream findings abound. The doctored runs' simulate.RunAudit
// errors are pinned by TestRunAuditGoldenErrors.
func TestAuditWorkerInvarianceDoctored(t *testing.T) {
	cfg := goldenScenarios["churn"]
	for _, name := range []string{
		"inflated useful count", "understated total count", "claimed earlier completion",
		"swapped block id", "forged transfer target", "shifted client completion",
	} {
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
			base := collectVerdicts(res, 1)
			for _, w := range auditWorkerWidths[1:] {
				if got := collectVerdicts(res, w); got != base {
					t.Errorf("AuditWorkers=%d verdicts diverge from sequential:\n got %+v\nwant %+v", w, got, base)
				}
			}
		})
	}
}
