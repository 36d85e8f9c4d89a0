package swarm

import (
	"fmt"

	"barterdist/internal/adversary"
	"barterdist/internal/bitset"
)

// The audit checks here and in Replay return plain errors; each
// engine's RunAudit wraps them in its own ErrAudit.

// CheckArtifacts checks the shapes of a recorded run's artifacts
// against the node count and returns the honest mask an adversarial
// replay classifies nodes by (nil for compliant runs).
func CheckArtifacts(nodes int, finalHave []*bitset.Set, completions int, finalAlive []bool, strategies []adversary.Strategy) ([]bool, error) {
	switch {
	case finalHave == nil:
		return nil, fmt.Errorf("result has no FinalHave snapshot; run with RecordTrace")
	case len(finalHave) != nodes:
		return nil, fmt.Errorf("FinalHave has %d entries for %d nodes", len(finalHave), nodes)
	case completions != nodes:
		return nil, fmt.Errorf("ClientCompletion has %d entries for %d nodes", completions, nodes)
	case finalAlive != nil && len(finalAlive) != nodes:
		return nil, fmt.Errorf("FinalAlive has %d entries for %d nodes", len(finalAlive), nodes)
	case strategies == nil:
		return nil, nil
	case len(strategies) != nodes:
		return nil, fmt.Errorf("Strategies has %d entries for %d nodes", len(strategies), nodes)
	case strategies[0] != adversary.Honest:
		return nil, fmt.Errorf("node 0 (the server) is recorded as %v; it must stay honest", strategies[0])
	}
	honest := make([]bool, nodes)
	for v, s := range strategies {
		honest[v] = s == adversary.Honest
	}
	return honest, nil
}
