package analysis_test

import (
	"testing"

	"barterdist/internal/lint"
)

// moduleRoot is the repository root relative to this package.
const moduleRoot = "../.."

// TestCdvetModuleClean is the whole-module half of the meta-gate: the
// repository's own tree must pass concurrency containment, shard
// purity and the escape gate with zero findings AND match the
// committed ANALYSIS.json exactly, through the same entry point
// cmd/cdvet and `make lint` use. A shared write sneaking onto a
// pairing path, a stray goroutine outside internal/parallel, or a new
// heap escape in a gated hot-path function makes this test fail.
// Legitimate changes re-baseline with `go run ./cmd/cdvet -update`.
// Every other rule is internal/lint's TestModuleIsClean. This is an
// external test so the package itself stays free of the analyzers.
func TestCdvetModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis + instrumented build is slow")
	}
	rules, err := lint.Select("concurrency-containment,shard-purity,escape-gate")
	if err != nil {
		t.Fatal(err)
	}
	report, err := lint.Gate(moduleRoot, rules, false, false)
	if err != nil {
		t.Fatalf("Gate: %v", err)
	}
	for _, w := range report.Warnings {
		t.Logf("loader warning: %s", w)
	}
	if report.Packages < 15 {
		t.Fatalf("loader found only %d packages; module walker is broken", report.Packages)
	}
	for _, f := range report.Findings {
		t.Errorf("finding: %s", f)
	}
	for _, d := range report.Drift {
		t.Errorf("drift: %s", d)
	}

	// The purity report must name every function reachable from both
	// engines' pairing paths — spot-pin the pickers of each engine and
	// the block picker and interest test they share, so a
	// silently-shrunk reachable set cannot pass.
	const mod = "barterdist"
	mustName := []string{
		"(*" + mod + "/internal/randomized.Scheduler).pickBlock",
		"(*" + mod + "/internal/randomized.TriangularScheduler).pickIntent",
		"(*" + mod + "/internal/asim.AsyncRandomized).pickTarget",
		mod + "/internal/swarm.PickBlock",
		mod + "/internal/swarm.Offers",
		"(*" + mod + "/internal/mechanism.Ledger).CanSend",
		"(*" + mod + "/internal/adversary.Guard).Blocked",
		"(*" + mod + "/internal/xrand.Rand).Uint64",
	}
	have := make(map[string]bool, len(report.Purity.Functions))
	for _, f := range report.Purity.Functions {
		have[f.Func] = true
	}
	for _, name := range mustName {
		if !have[name] {
			t.Errorf("purity report does not name %s", name)
		}
	}
}
