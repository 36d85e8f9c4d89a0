package mechanism

import (
	"fmt"

	"barterdist/internal/adversary"
	"barterdist/internal/simulate"
	"barterdist/internal/trace"
)

// This file holds the post-hoc auditors for adversarial runs — the
// executable form of the paper's "protection of barter" argument: a
// client that contributes nothing can extract almost nothing, because
// every client-to-client transfer is collateralized by the credit
// limit. The auditors replay a recorded simulate.Result (the columnar
// Trace plus Strategies) without needing the consumed adversary plan.

// VerifyStarvation checks the starvation guarantee on an adversarial
// trace run under credit-limited (or triangular) barter with limit s:
// a free-rider never uploads, so it can never settle credit — the net
// number of blocks DELIVERED to it by any single client peer must stay
// within s for the whole run. Transfers that were scheduled but dropped
// (by the fault layer or by the sender's own strategy) consumed no
// credit at the free-rider and do not count, which the trace cursor's
// per-transfer Dropped flag reports directly.
//
// The server (node 0) is exempt, as everywhere in the paper: barter
// does not protect the server's altruism, only the clients'.
//
// It needs res.Trace (Config.RecordTrace) and res.Strategies (an
// adversary plan); it returns an error describing the first offending
// pair, or nil when every free-rider was properly starved.
func VerifyStarvation(res *simulate.Result, s int) error {
	if s < 1 {
		return fmt.Errorf("mechanism: credit limit %d must be >= 1", s)
	}
	if res.Strategies == nil {
		return fmt.Errorf("mechanism: VerifyStarvation requires an adversarial run (Result.Strategies is nil)")
	}
	if res.Trace == nil && res.CompletionTime > 0 {
		return fmt.Errorf("mechanism: VerifyStarvation requires a recorded trace (set RecordTrace)")
	}
	freeRider := make([]bool, len(res.Strategies))
	any := false
	for v, st := range res.Strategies {
		if st == adversary.FreeRider {
			freeRider[v] = true
			any = true
		}
	}
	if !any || res.Trace == nil {
		return nil // nothing to starve (or nothing recorded)
	}
	if o, _ := creditWalk(res.Trace.Cursor(), freeRider, s, false); o != nil {
		return o.violation(fmt.Sprintf("free-rider %d received %d net blocks from client %d, above credit limit %d — barter failed to starve it", o.to, o.net, o.from, s))
	}
	return nil
}

// AuditAdversary replays a recorded adversarial run and checks that
// every declared strategy behaved as declared — the Result's own word
// against its trace:
//
//   - a free-rider client never DELIVERS a block (every scheduled
//     transfer it sends must have been refused by its own strategy);
//   - a defector never delivers after the tick on which it completed
//     (defection latches at completion; within the completing tick
//     transfers are simultaneous and still count as honest);
//   - a throttler's upload attempts (delivered, stalled, or garbled —
//     anything its window admitted) are spaced at least period ticks
//     apart.
//
// period is the throttle spacing in ticks; period <= 0 selects the
// adversary package default. It needs res.Trace, whose drop columns
// carry each drop's kind.
func AuditAdversary(res *simulate.Result, period float64) error {
	if res.Strategies == nil {
		return fmt.Errorf("mechanism: AuditAdversary requires an adversarial run (Result.Strategies is nil)")
	}
	if res.Trace == nil && res.CompletionTime > 0 {
		return fmt.Errorf("mechanism: AuditAdversary requires a recorded trace (set RecordTrace)")
	}
	if period <= 0 {
		period = adversary.DefaultThrottlePeriod
	}
	if res.Trace == nil {
		return nil
	}
	n := len(res.Strategies)
	lastAttempt := make([]int, n) // per-throttler tick of last admitted upload; 0 = none
	cur := res.Trace.Cursor().Only(trace.ColFrom | trace.ColTo)
	for cur.NextTick() {
		t := cur.Tick()
		for cur.NextSpan() {
			sp := cur.Span()
			refused := sp.Dropped && sp.Kind == simulate.LostKindRefused
			for j, from := range sp.From {
				u, v := int32(from), int32(sp.To[j])
				if u == 0 || int(u) >= n {
					continue
				}
				switch res.Strategies[u] {
				case adversary.FreeRider:
					if !refused {
						return &Violation{
							Tick: t, From: u, To: v,
							Reason: "free-rider sent a block (its strategy must refuse every upload)",
						}
					}
				case adversary.Defector:
					done := res.ClientCompletion[u]
					if done > 0 && t > done && !refused {
						return &Violation{
							Tick: t, From: u, To: v,
							Reason: fmt.Sprintf("defector uploaded after completing at tick %d", done),
						}
					}
				case adversary.Throttler:
					if refused {
						continue
					}
					if last := lastAttempt[u]; last > 0 && float64(t-last) < period {
						return &Violation{
							Tick: t, From: u, To: v,
							Reason: fmt.Sprintf("throttler uploaded %d tick(s) after its previous upload at tick %d (period %g)", t-last, last, period),
						}
					}
					lastAttempt[u] = t
				}
			}
		}
	}
	return nil
}
