package core

import (
	"testing"

	"barterdist/internal/mechanism"
	"barterdist/internal/trace"
)

// heldTransfers replays l's ledger through mechanism.Settlement and
// counts the client transfers whose pair was already at credit limit s
// when their tick began: the triangular scheduler approves such a
// transfer only as a leg of a settled cycle.
func heldTransfers(t *testing.T, l *trace.Log, s int) int {
	t.Helper()
	ledger, err := mechanism.NewLedger(s)
	if err != nil {
		t.Fatal(err)
	}
	var tick mechanism.Settlement
	held := 0
	cur := l.Cursor()
	for cur.NextTick() {
		tick.Reset()
		for cur.NextSpan() {
			sp := cur.Span()
			for j, u := range sp.From {
				v := int32(sp.To[j])
				if !ledger.CanSend(int32(u), v) {
					held++
				}
				tick.Add(int32(u), v)
			}
		}
		tick.Settle(func(u, v int32, c int) {
			for ; c > 0; c-- {
				ledger.Record(u, v)
			}
		})
	}
	return held
}

// TestTriangularHeldCycleSettles runs seeded instances in which
// credit-blocked (held) intents close a cycle that settles, and checks
// that each trace passes VerifyTriangular at its s. Held cycles are
// rare; these were found by a seed search over n <= 8. In the uncapped
// instance a cycle member's receiver also downloads from an earlier
// uploader, which could take the only block the member offers and
// leave the cycle's other legs charged past s; the settled legs emit
// first, so the cycle closes.
func TestTriangularHeldCycleSettles(t *testing.T) {
	for _, name := range []string{"triangular+held-cycle", "triangular+held-cycle+uncapped"} {
		cfg := goldenScenario(name)
		cfg.RecordTrace = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := mechanism.VerifyTriangular(res.Sim.Trace.Cursor(), cfg.CreditLimit); err != nil {
			t.Errorf("%s: trace violates triangular barter: %v", name, err)
		}
		if held := heldTransfers(t, res.Sim.Trace, cfg.CreditLimit); held == 0 {
			t.Errorf("%s: no held transfer settled; the instance no longer exercises cycle settlement", name)
		}
	}
}
