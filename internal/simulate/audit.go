package simulate

import (
	"errors"
	"fmt"

	"barterdist/internal/swarm"
	"barterdist/internal/trace"
)

// ErrAudit wraps every RunAudit failure so callers can distinguish
// "the recorded run broke an invariant" from configuration errors.
var ErrAudit = errors.New("simulate: audit failed")

func auditErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrAudit, fmt.Sprintf(format, args...))
}

// replay is RunAudit's re-derivation of a recorded run: the population
// (swarm.Replay) rebuilt tick by tick from the trace and the fault log,
// the per-tick cap counters, plus the whole-run tallies the Result must
// match.
type replay struct {
	c      Config
	res    *Result
	honest []bool // nil for compliant runs

	pop  *swarm.Replay[int]
	caps *capScratch

	// lands is the current tick's transfers in trace order, appended by
	// the validation half and landed by the delivery half; reused
	// across ticks.
	lands []landing

	ei int // fault-log cursor

	useful, total, lost        int
	kind                       [trace.NumKinds]int
	honestUseful, honestWasted int
}

// landing is one validated transfer awaiting delivery.
type landing struct {
	to, block int32
	kind      uint8 // drop kind, or delivered
}

// delivered marks a landing that arrived; recorded drop kinds are
// nibbles, so it never collides with one.
const delivered uint8 = 0xff

// events applies the fault-log events due at the start of tick t, in
// log order. The engine stamps each event with the tick it fires at, so
// an event due by t must carry exactly t: a fractional, non-positive or
// regressed time fails here.
func (rp *replay) events(t int) error {
	log := rp.res.FaultLog
	for rp.ei < len(log) && log[rp.ei].Time <= float64(t) {
		ev := log[rp.ei]
		rp.ei++
		if v := int(ev.Node); v <= 0 || v >= rp.c.Nodes {
			return auditErr("fault log: event %v targets invalid node %d", ev.Kind, v)
		}
		if ev.Time != float64(t) {
			return auditErr("tick %d: fault-log event %d has time %v", t, rp.ei-1, ev.Time)
		}
		if err := rp.pop.Transition("tick ", ev); err != nil {
			return auditErr("%v", err)
		}
		rp.pop.Apply(ev)
	}
	return nil
}

// check validates one scheduled transfer against the start-of-tick
// state, in the engine's check order and with its error text.
func (rp *replay) check(f, v, b int) error {
	n := rp.c.Nodes
	switch {
	case f < 0 || f >= n:
		return fmt.Errorf("sender %d out of range", f)
	case v < 0 || v >= n:
		return fmt.Errorf("receiver %d out of range", v)
	case f == v:
		return fmt.Errorf("node %d transfers to itself", f)
	case b < 0 || b >= rp.c.Blocks:
		return fmt.Errorf("block %d out of range", b)
	case !rp.pop.Alive[f]:
		return fmt.Errorf("dead node %d cannot upload", f)
	case !rp.pop.Alive[v]:
		return fmt.Errorf("dead node %d cannot download", v)
	case !rp.pop.Have[f].Has(b):
		return fmt.Errorf("store-and-forward violation: node %d does not hold block %d", f, b)
	}
	upCap := rp.c.UploadCap
	if f == 0 {
		upCap = rp.c.ServerUploadCap
	}
	if int(rp.caps.addUp(f)) > upCap {
		return fmt.Errorf("node %d exceeds upload cap %d", f, upCap)
	}
	if used := rp.caps.addDown(v); rp.c.DownloadCap != Unlimited && int(used) > rp.c.DownloadCap {
		return fmt.Errorf("node %d exceeds download cap %d", v, rp.c.DownloadCap)
	}
	return nil
}

// tick replays the cursor's current tick in two halves: every
// transfer is validated against the start-of-tick state as its span is
// read, then the drop-aware delivery lands the ones that arrived, so a
// block received in a tick cannot be forwarded in the same tick.
func (rp *replay) tick(c *trace.Cursor) error {
	t := c.Tick()
	rp.caps.reset(t)
	rp.lands = rp.lands[:0]
	for c.NextSpan() {
		s := c.Span()
		kind := delivered
		if s.Dropped {
			kind = s.Kind
		}
		for j, f := range s.From {
			v, b := int32(s.To[j]), int32(s.Block[j])
			if err := rp.check(int(int32(f)), int(v), int(b)); err != nil {
				return auditErr("tick %d: %v", t, err)
			}
			rp.lands = append(rp.lands, landing{to: v, block: b, kind: kind})
		}
	}

	for _, ld := range rp.lands {
		v := int(ld.to)
		rp.total++
		if ld.kind != delivered {
			if rp.honest != nil {
				if int(ld.kind) >= len(rp.kind) {
					return auditErr("tick %d: unknown drop kind %d", t, ld.kind)
				}
				rp.kind[ld.kind]++
				if ld.kind != LostKindFault && ld.kind != LostKindFaultCorrupt && rp.honest[v] {
					rp.honestWasted++
				}
			}
			rp.lost++ // the lost/corrupt split is checked in aggregate
			continue
		}
		if !rp.pop.Deliver(v, int(ld.block), t) {
			continue
		}
		rp.useful++
		if rp.honest != nil && rp.honest[v] {
			rp.honestUseful++
		}
	}
	return nil
}

// RunAudit replays a recorded run from scratch and verifies that every
// engine invariant held and that the reported result is exactly what
// the trace produces. It is the post-hoc counterpart of the engine's
// online validation: given only the artifacts a run leaves behind
// (Config, Trace, FaultLog, FinalHave), it re-derives the
// whole execution and checks
//
//   - upload/download capacity: no node exceeds its per-tick caps;
//   - store-and-forward: every sender held the block at the start of
//     the tick it sent it;
//   - liveness: no transfer touches a dead node, no node crashes twice
//     or rejoins while alive, the server never crashes, and every
//     fault-log event carries the tick it fired at;
//   - accounting: useful-transfer and loss counts, per-client
//     completion ticks, the completion time, and the final
//     block-ownership state all match the recorded Result.
//
// A Result produced by Run with RecordTrace always passes; a doctored
// trace — or one produced by a cheating scheduler through a permissive
// engine — fails with a pinpointed ErrAudit. cfg.Fault and
// cfg.Adversary are ignored: the replay takes its adversity from
// res.FaultLog, res.Strategies, and the trace's drop columns, so
// auditing never consumes a (single-use) plan. For adversarial runs
// the drop causes are re-counted per kind and the honest-only
// completion criterion and honest stall accounting are re-derived from
// the trace.
//
// The replay is one sequential pass: a single trace.Cursor reads the
// trace span by span, so each sealed frame is decoded once, and
// swarm.Replay rebuilds the population. It reports the first violation
// in replay order: a tick's fault events, then its transfers'
// validation in trace order, then their delivery; after the last tick
// the completion rule, the counts, and the final per-node state in
// ascending node order.
func RunAudit(cfg Config, res *Result) error {
	cfg.Fault = nil
	cfg.Adversary = nil
	cfg.Arrivals = nil // open replays take arrivals from res.FaultLog
	if err := cfg.Validate(); err != nil {
		return err
	}
	c := cfg.withDefaults()
	if res == nil {
		return auditErr("nil result")
	}
	if c.Nodes == 1 {
		return nil // vacuous run, nothing recorded
	}
	honest, err := swarm.CheckArtifacts(c.Nodes, res.FinalHave, len(res.ClientCompletion), res.FinalAlive, res.Strategies)
	if err != nil {
		return auditErr("%v", err)
	}
	if res.Trace == nil {
		return auditErr("result has no trace; run with RecordTrace")
	}
	ticks := res.Trace.Ticks()
	if res.CompletionTime != ticks {
		return auditErr("CompletionTime %d does not match trace length %d", res.CompletionTime, ticks)
	}
	adversarial := honest != nil
	if adversarial && !res.Trace.Kinded() {
		return auditErr("adversarial result's trace records no drop kinds")
	}

	rp := &replay{
		c: c, res: res, honest: honest,
		pop:  swarm.NewReplay[int](c.Nodes, c.Blocks, res.Open != nil),
		caps: newCapScratch(c.Nodes),
	}
	for cur := res.Trace.Cursor(); cur.NextTick(); {
		if err := rp.events(cur.Tick()); err != nil {
			return err
		}
		if err := rp.tick(cur); err != nil {
			return err
		}
	}
	// Events that fired after the last scheduled tick (a crash that
	// finished the run by removing the last incomplete client).
	if err := rp.events(ticks + 1); err != nil {
		return err
	}
	if left := len(res.FaultLog) - rp.ei; left > 0 {
		return auditErr("fault log has %d events beyond the recorded run", left)
	}

	// The run must actually have finished under the engine's criterion.
	if res.Open != nil {
		if err := rp.pop.CheckOpen(res.Open); err != nil {
			return auditErr("%v", err)
		}
	} else if adversarial {
		// The replay never schedules rejoins, so none are pending.
		if present, complete := rp.pop.Present(honest); complete != present {
			clients := 0
			for _, h := range honest[1:] {
				if h {
					clients++
				}
			}
			return auditErr("replayed trace does not reach honest completion (%d/%d honest clients complete)",
				complete, clients)
		}
	} else if present, complete := rp.pop.Present(nil); complete != present {
		return auditErr("replayed trace does not reach completion (%d/%d alive clients complete, %d rejoins pending)",
			complete, present, 0)
	}
	if rp.useful != res.UsefulTransfers {
		return auditErr("replay counts %d useful transfers, result reports %d", rp.useful, res.UsefulTransfers)
	}
	if rp.total != res.TotalTransfers {
		return auditErr("replay counts %d total transfers, result reports %d", rp.total, res.TotalTransfers)
	}
	corrupt := res.CorruptTransfers
	if adversarial {
		if rp.kind[LostKindFault] != res.LostTransfers || rp.kind[LostKindFaultCorrupt] != corrupt {
			return auditErr("replay counts %d lost + %d corrupt fault drops, result reports %d + %d",
				rp.kind[LostKindFault], rp.kind[LostKindFaultCorrupt], res.LostTransfers, corrupt)
		}
		if rp.kind[LostKindRefused] != res.AdvRefused ||
			rp.kind[LostKindStalled] != res.AdvStalled ||
			rp.kind[LostKindGarbage] != res.AdvCorrupt {
			return auditErr("replay counts %d refused / %d stalled / %d garbage adversary drops, result reports %d / %d / %d",
				rp.kind[LostKindRefused], rp.kind[LostKindStalled], rp.kind[LostKindGarbage],
				res.AdvRefused, res.AdvStalled, res.AdvCorrupt)
		}
		if rp.honestUseful != res.HonestUseful || rp.honestWasted != res.HonestWasted {
			return auditErr("replay counts %d honest-useful / %d honest-wasted, result reports %d / %d",
				rp.honestUseful, rp.honestWasted, res.HonestUseful, res.HonestWasted)
		}
	} else if rp.lost != res.LostTransfers+corrupt {
		return auditErr("replay counts %d dropped transfers, result reports %d lost + %d corrupt",
			rp.lost, res.LostTransfers, res.CorruptTransfers)
	}
	if err := rp.pop.Final("tick", res.FinalHave, res.ClientCompletion, res.FinalAlive); err != nil {
		return auditErr("%v", err)
	}
	return nil
}
