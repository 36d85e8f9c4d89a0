package core

import (
	"testing"

	"barterdist/internal/mechanism"
	"barterdist/internal/simulate"
)

// TestLargeSwarmSmoke is the in-tree half of the scale-out acceptance:
// a 20k-peer randomized run under credit-limited barter (s = 1) with
// the columnar trace recording every transfer must complete, replay
// clean through RunAudit, and satisfy the credit mechanism on the
// recorded trace. It exists to catch memory or complexity regressions
// (per-tick O(n) scans, trace re-allocation) that the small unit tests
// cannot see; the full n = 100k point runs via `make scale` and is
// recorded in EXPERIMENTS.md. Skipped under -short: it moves ~1.3M
// transfers.
func TestLargeSwarmSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-swarm smoke run skipped in -short mode")
	}
	cfg := Config{
		Nodes: 20000, Blocks: 64,
		Algorithm:   AlgoRandomized,
		CreditLimit: 1,
		DownloadCap: 1,
		RecordTrace: true,
		Seed:        46000,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.CompletionTime <= 0 {
		t.Fatalf("no completion time recorded")
	}
	// Sanity-bound T: at least the cooperative optimum, and within a
	// small constant factor of it (the paper's price-of-barter regime).
	if res.CompletionTime < res.OptimalTime {
		t.Fatalf("T = %d beats the cooperative bound %d", res.CompletionTime, res.OptimalTime)
	}
	if res.CompletionTime > 6*res.OptimalTime {
		t.Fatalf("T = %d is > 6x the cooperative bound %d; scheduler has regressed", res.CompletionTime, res.OptimalTime)
	}
	if err := simulate.RunAudit(res.SimConfig, res.Sim); err != nil {
		t.Fatalf("RunAudit: %v", err)
	}
	if err := mechanism.VerifyCreditLimited(res.Sim.Trace.Cursor(), cfg.CreditLimit); err != nil {
		t.Fatalf("VerifyCreditLimited: %v", err)
	}
	// The credit check through the parallel pair lanes at width 8 must agree.
	if err := mechanism.VerifyCreditLimitedLog(res.Sim.Trace, false, cfg.CreditLimit, 8); err != nil {
		t.Fatalf("VerifyCreditLimitedLog(workers=8): %v", err)
	}
	// Compression regression pin: the sealed frame-compressed log must
	// hold this ~1.3M-transfer trace at no more than 5 bytes per
	// transfer (raw columns are 12 B + drop bookkeeping). A codec
	// regression — a column falling off encDelta/encSplit onto encRaw,
	// or frames failing to seal — shows up here long before the 10^5
	// and 10^6 capstone runs would catch it.
	n := res.Sim.Trace.Len()
	if bpt := float64(res.Sim.Trace.MemSize()) / float64(n); bpt > 5 {
		t.Errorf("trace footprint %.2f B/transfer over %d transfers; want <= 5", bpt, n)
	}
}
