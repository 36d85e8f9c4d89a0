package core

import (
	"fmt"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/mechanism"
)

// mechanismScenarios are the recorded runs whose mechanism verdicts the
// corpus pins: churn, plain and credit-limited randomized, adversaries
// with and without barter, an open swarm, and a binomial pipeline whose
// ticks straddle sealed trace frames.
var mechanismScenarios = map[string]Config{
	"churn":           goldenScenarios["churn"],
	"sealed-pipeline": goldenScenarios["sealed-pipeline"],
	// Plain randomized violates strict barter and credit s=1, so this
	// scenario pins the verifiers' violation text, not just their nil
	// verdicts.
	"plain-randomized": {
		Nodes: 20, Blocks: 12, Algorithm: AlgoRandomized, Seed: 3, RecordTrace: true,
	},
	"credit-s1": {
		Nodes: 24, Blocks: 16, Algorithm: AlgoRandomized, CreditLimit: 1,
		Seed: 5, RecordTrace: true,
	},
	// Without barter the free-riders leech, so the starvation verifier
	// reports a violating pair.
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

// mechanismTampers are the goldenTampers the corpus applies to the
// churn run: broken traces, where spurious downstream findings abound.
var mechanismTampers = []string{
	"inflated useful count", "understated total count", "claimed earlier completion",
	"swapped block id", "forged transfer target", "shifted client completion",
}

// mechanismVerdicts is every mechanism verifier's verdict on one
// recorded run, one "<label>/<verifier>: <verdict>" line each. The
// verifiers read the released view, as core's Verify does, and the
// full view where the minimal-credit scan and a credit check read it.
func mechanismVerdicts(label string, res *Result) []string {
	l := res.Sim.Trace
	line := func(verifier string, err error) string {
		return fmt.Sprintf("%s/%s: %s", label, verifier, errString(err))
	}
	out := []string{
		line("strict", mechanism.VerifyStrictBarter(l.ReleasedCursor())),
		line("credit s=1", mechanism.VerifyCreditLimited(l.ReleasedCursor(), 1)),
		line("credit s=2", mechanism.VerifyCreditLimited(l.ReleasedCursor(), 2)),
		line("credit s=1 full view", mechanism.VerifyCreditLimited(l.Cursor(), 1)),
		fmt.Sprintf("%s/min-credit: %d", label, mechanism.MinimalCreditLimit(l.Cursor())),
		fmt.Sprintf("%s/min-credit released view: %d", label, mechanism.MinimalCreditLimit(l.ReleasedCursor())),
		line("triangular s=1", mechanism.VerifyTriangular(l.ReleasedCursor(), 1)),
	}
	if res.Sim.Strategies != nil {
		out = append(out, line("starvation s=1", mechanism.VerifyStarvation(res.Sim, 1)))
	}
	return out
}

// TestMechanismGoldenVerdicts is the mechanism verifiers' reference:
// strict barter, credit-limited barter, the minimal credit limit,
// starvation and triangular barter over every mechanismScenarios run
// and every mechanismTampers variant of the churn run must match
// testdata/mechanism.golden byte for byte. Run with -update to rewrite
// the file after a deliberate change.
func TestMechanismGoldenVerdicts(t *testing.T) {
	var got []string
	for _, scen := range sortedKeys(mechanismScenarios) {
		res, err := Run(mechanismScenarios[scen])
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		got = append(got, mechanismVerdicts(scen, res)...)
	}
	for _, name := range mechanismTampers {
		res, err := Run(mechanismScenarios["churn"])
		if err != nil {
			t.Fatal(err)
		}
		if !goldenTampers[name](res.Sim, res.SimConfig) {
			t.Fatalf("tamper %q does not apply", name)
		}
		got = append(got, mechanismVerdicts("churn/"+name, res)...)
	}
	checkGolden(t, "mechanism.golden", got)
}

// TestCreditVerifiedRunWalksOnce checks core's one-walk path: a
// credit-verified run over an unkinded log takes its minimal credit
// limit and its verdict from one walk of the full view, which must give
// what the two separate walks give — MinimalCreditLimit over the full
// view and VerifyCreditLimited over the released view. Every
// mechanismScenarios run is verified at limits 1 and 2; the adversarial
// ones are kinded and keep both walks, and are checked the same way.
func TestCreditVerifiedRunWalksOnce(t *testing.T) {
	var passed, failed int // one-walk runs by verdict
	for _, scen := range sortedKeys(mechanismScenarios) {
		for _, s := range []int{1, 2} {
			cfg := mechanismScenarios[scen]
			cfg.Verify, cfg.CreditLimit = MechanismCredit, s
			res, err := Run(cfg)
			if res == nil {
				t.Fatalf("%s s=%d: %v", scen, s, err)
			}
			l := res.Sim.Trace
			minimal := mechanism.MinimalCreditLimit(l.Cursor())
			verdict := mechanism.VerifyCreditLimited(l.ReleasedCursor(), s)
			if res.MinimalCreditLimit != minimal || errString(err) != errString(verdict) {
				t.Fatalf("%s s=%d: run gives (%d, %v), two walks (%d, %v)", scen, s, res.MinimalCreditLimit, err, minimal, verdict)
			}
			switch {
			case l.Kinded():
			case err != nil:
				failed++
			default:
				passed++
			}
		}
	}
	if passed == 0 || failed == 0 {
		t.Fatalf("one-walk runs: %d passed, %d failed; the scenarios no longer cover both verdicts", passed, failed)
	}
}
