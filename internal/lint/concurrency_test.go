package lint

import "testing"

func TestConcurrencyContainmentFixture(t *testing.T) {
	checkFixture(t, ConcurrencyContainmentAnalyzer(), "concviol", "fixture/internal/experiment/concviol")
}

func TestConcurrencyContainmentCoversArrival(t *testing.T) {
	// internal/arrival feeds both engines' deterministic event order;
	// it must stay OFF the exemption list — a goroutine or channel in
	// the arrival plan would race the Poisson stream against the tick
	// loop. Every violation in the fixture must fire under the arrival
	// path.
	checkFixture(t, ConcurrencyContainmentAnalyzer(), "concviol", "fixture/internal/arrival/concviol")
}

func TestConcurrencyContainmentAllowsParallel(t *testing.T) {
	// The same violating code inside internal/parallel is the
	// deterministic worker pool's own implementation — silent.
	checkExemptSilent(t, []*Analyzer{ConcurrencyContainmentAnalyzer()}, "concviol", "fixture/internal/parallel/concviol")
}
