package swarm

import (
	"fmt"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/bitset"
)

// The audit checks below return plain errors; each engine's RunAudit
// wraps them in its own ErrAudit.

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

// OpenCounts is what an auditor's replay re-derived about an open run's
// population.
type OpenCounts struct {
	Arrived, Departed, EarlyExits int
	// Completed counts clients whose completion time is set.
	Completed int
	// Present counts the clients present at the end; Complete how many
	// of them hold the whole file.
	Present, Complete int
}

// AuditOpen checks an open run's recorded verdict and counters against
// an auditor's replay of an n-node run. Drained requires an exhausted
// pool and no peer mid-download; Unstable is a bounded truncation with
// no completion requirement. Either way every peer that entered must be
// accounted for by the starvation identity
//
//	Arrived = Completed + EarlyExits + FinalOccupancy
//
// so a run that silently loses a peer fails even when every
// transfer-level invariant holds.
func AuditOpen(o *arrival.OpenResult, n int, r OpenCounts) error {
	switch o.Verdict {
	case arrival.VerdictDrained:
		if r.Arrived != n-1 {
			return fmt.Errorf("drained verdict with %d/%d arrivals replayed", r.Arrived, n-1)
		}
		if r.Complete != r.Present {
			return fmt.Errorf("drained verdict but %d/%d present clients complete", r.Complete, r.Present)
		}
	case arrival.VerdictUnstable:
	default:
		return fmt.Errorf("open result carries verdict %v", o.Verdict)
	}
	if o.Arrived != r.Arrived || o.Departed != r.Departed || o.EarlyExits != r.EarlyExits {
		return fmt.Errorf("replay counts %d arrived / %d departed / %d early exits, result reports %d / %d / %d",
			r.Arrived, r.Departed, r.EarlyExits, o.Arrived, o.Departed, o.EarlyExits)
	}
	if o.Completed != r.Completed {
		return fmt.Errorf("replay counts %d completions, open result reports %d", r.Completed, o.Completed)
	}
	if occ := r.Present - r.Complete; o.FinalOccupancy != occ {
		return fmt.Errorf("replay leaves %d peers mid-download, open result reports %d", occ, o.FinalOccupancy)
	}
	if o.Arrived != o.Completed+o.EarlyExits+o.FinalOccupancy {
		return fmt.Errorf("open run starves silently: %d arrived != %d completed + %d early exits + %d still present",
			o.Arrived, o.Completed, o.EarlyExits, o.FinalOccupancy)
	}
	return nil
}
