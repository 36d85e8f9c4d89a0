package simulate

import (
	"errors"
	"fmt"

	"barterdist/internal/bitset"
	"barterdist/internal/fault"
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
// state the engine held, rebuilt tick by tick from the trace and the
// fault log, plus the whole-run tallies the Result must match.
type replay struct {
	c      Config
	res    *Result
	open   bool
	honest []bool // nil for compliant runs

	have       []*bitset.Set
	completion []int
	alive      []bool // nil unless a fault log or arrival plan drives liveness
	caps       *capScratch

	// wins is the decode window: one Win per frame a single tick can
	// span (two for any tick shorter than a frame), picked by frame
	// index. A tick's delivery half re-reads exactly the frames its
	// validation half decoded, and the next tick starts in the last of
	// them, so every sealed frame is decoded once per replay.
	wins      []trace.Win
	dropIdx   []int32
	dropKinds []uint8

	ei         int // fault-log cursor
	nextArrive int // open runs: ids arrive in order

	useful, total, lost         int
	kind                        [trace.NumKinds]int
	honestUseful, honestWasted  int
	complete, aliveClients      int
	honestClients               int
	completeHonest, aliveHonest int
	departed, earlyExits        int
}

func newReplay(c Config, res *Result, honest []bool, open, tracked bool) *replay {
	n, k := c.Nodes, c.Blocks
	rp := &replay{
		c: c, res: res, open: open, honest: honest,
		have:       make([]*bitset.Set, n),
		completion: make([]int, n),
		caps:       newCapScratch(n),
		nextArrive: 1,
	}
	for v := range rp.have {
		rp.have[v] = bitset.New(k)
	}
	rp.have[0].Fill()
	if tracked {
		rp.alive = make([]bool, n)
		rp.alive[0] = true
		if !open {
			for v := range rp.alive {
				rp.alive[v] = true
			}
		}
	}
	if !open {
		rp.aliveClients = n - 1
	}
	if honest != nil {
		for _, h := range honest[1:] {
			if h {
				rp.honestClients++
			}
		}
		rp.aliveHonest = rp.honestClients
	}

	l := res.Trace
	span := 1
	for t := 0; t < l.Ticks(); t++ {
		if start, end := l.TickSpan(t); end > start {
			span = max(span, trace.FrameOf(end-1)-trace.FrameOf(start)+1)
		}
	}
	rp.wins = make([]trace.Win, span)
	return rp
}

// window returns the decoded columns around transfer i; see wins.
func (rp *replay) window(i int) (from, to, block []uint32, base, end int) {
	return rp.res.Trace.Window(&rp.wins[trace.FrameOf(i)%len(rp.wins)], i)
}

// events applies the fault-log events due at the start of tick t, in
// log order. The cursor only moves forward and stops at the first event
// later than t, so a time regression applies with its predecessor.
func (rp *replay) events(t int) error {
	log := rp.res.FaultLog
	for rp.ei < len(log) && log[rp.ei].Time <= float64(t) {
		ev := log[rp.ei]
		rp.ei++
		v := int(ev.Node)
		if v <= 0 || v >= rp.c.Nodes {
			return auditErr("fault log: event %v targets invalid node %d", ev.Kind, v)
		}
		honest := rp.honest != nil && rp.honest[v]
		full := rp.have[v].Full()
		switch ev.Kind {
		case fault.Arrive:
			if !rp.open {
				return auditErr("tick %v: arrival event in a closed-system run", ev.Time)
			}
			if v != rp.nextArrive {
				return auditErr("tick %v: node %d arrives out of order (expected %d)", ev.Time, v, rp.nextArrive)
			}
			if rp.alive[v] {
				return auditErr("tick %v: node %d arrives while present", ev.Time, v)
			}
			if rp.have[v].Count() != 0 {
				return auditErr("tick %v: node %d arrives holding blocks", ev.Time, v)
			}
			rp.nextArrive++
			rp.alive[v] = true
			rp.aliveClients++
		case fault.Depart:
			if !rp.open {
				return auditErr("tick %v: departure event in a closed-system run", ev.Time)
			}
			if !rp.alive[v] {
				return auditErr("tick %v: node %d departs while absent", ev.Time, v)
			}
			rp.alive[v] = false
			rp.aliveClients--
			rp.departed++
			if full {
				rp.complete--
			} else {
				rp.earlyExits++
			}
		case fault.Crash:
			if rp.open {
				return auditErr("tick %v: crash event in an open-system run", ev.Time)
			}
			if !rp.alive[v] {
				return auditErr("tick %v: node %d crashes while already dead", ev.Time, v)
			}
			rp.alive[v] = false
			rp.aliveClients--
			if full {
				rp.complete--
			}
			if honest {
				rp.aliveHonest--
				if full {
					rp.completeHonest--
				}
			}
		case fault.Rejoin:
			if rp.open {
				return auditErr("tick %v: rejoin event in an open-system run", ev.Time)
			}
			if rp.alive[v] {
				return auditErr("tick %v: node %d rejoins while alive", ev.Time, v)
			}
			rp.alive[v] = true
			rp.aliveClients++
			if honest {
				rp.aliveHonest++
			}
			if ev.Wiped {
				rp.have[v].Clear()
				rp.completion[v] = 0
			} else if full {
				rp.complete++
				if honest {
					rp.completeHonest++
				}
			}
		default:
			return auditErr("fault log: unknown event kind %d", uint8(ev.Kind))
		}
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
	case rp.alive != nil && !rp.alive[f]:
		return fmt.Errorf("dead node %d cannot upload", f)
	case rp.alive != nil && !rp.alive[v]:
		return fmt.Errorf("dead node %d cannot download", v)
	case !rp.have[f].Has(b):
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

// tick replays tick t in two halves: every transfer is validated
// against the start-of-tick state, then the drop-aware delivery lands
// the ones that arrived.
func (rp *replay) tick(t int) error {
	l := rp.res.Trace
	start, end := l.TickSpan(t - 1)
	rp.caps.reset(t)
	for i := start; i < end; {
		from, to, block, base, wend := rp.window(i)
		for stop := min(end, wend); i < stop; i++ {
			j := i - base
			if err := rp.check(int(int32(from[j])), int(int32(to[j])), int(int32(block[j]))); err != nil {
				return auditErr("tick %d: %v", t, err)
			}
		}
	}

	rp.dropIdx, rp.dropKinds = l.AppendTickDrops(t-1, rp.dropIdx[:0], rp.dropKinds[:0])
	dp := 0
	for i := start; i < end; {
		_, to, block, base, wend := rp.window(i)
		for stop := min(end, wend); i < stop; i++ {
			j := i - base
			v := int(int32(to[j]))
			rp.total++
			if dp < len(rp.dropIdx) && int(rp.dropIdx[dp]) == i-start {
				kind := LostKindFault
				if dp < len(rp.dropKinds) {
					kind = rp.dropKinds[dp]
				}
				dp++
				if rp.honest != nil {
					if int(kind) >= len(rp.kind) {
						return auditErr("tick %d: unknown drop kind %d", t, kind)
					}
					rp.kind[kind]++
					if kind != LostKindFault && kind != LostKindFaultCorrupt && rp.honest[v] {
						rp.honestWasted++
					}
				}
				rp.lost++ // the lost/corrupt split is checked in aggregate
				continue
			}
			if !rp.have[v].Add(int(int32(block[j]))) {
				continue
			}
			honest := rp.honest != nil && rp.honest[v]
			rp.useful++
			if honest {
				rp.honestUseful++
			}
			if v != 0 && rp.have[v].Full() {
				rp.complete++
				rp.completion[v] = t
				if honest {
					rp.completeHonest++
				}
			}
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
//     or rejoins while alive, and the server never crashes;
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
// The replay is one sequential pass that decodes each sealed trace
// frame once. It reports the first violation in replay order: a tick's
// fault events, then its transfers' validation in trace order, then
// their delivery; after the last tick the counts, the completion rule,
// and the final per-node state in ascending node order.
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
	open := res.Open != nil
	tracked := open || len(res.FaultLog) > 0 || res.FinalAlive != nil
	adversarial := honest != nil
	if adversarial && !res.Trace.Kinded() {
		return auditErr("adversarial result's trace records no drop kinds")
	}

	rp := newReplay(c, res, honest, open, tracked)
	for t := 1; t <= ticks; t++ {
		if err := rp.events(t); err != nil {
			return err
		}
		if err := rp.tick(t); err != nil {
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
	if open {
		comp := 0
		for _, done := range rp.completion[1:] {
			if done != 0 {
				comp++
			}
		}
		if err := swarm.AuditOpen(res.Open, c.Nodes, swarm.OpenCounts{
			Arrived: rp.nextArrive - 1, Departed: rp.departed, EarlyExits: rp.earlyExits,
			Completed: comp, Present: rp.aliveClients, Complete: rp.complete,
		}); err != nil {
			return auditErr("%v", err)
		}
	} else if adversarial {
		// The replay never schedules rejoins, so none are pending.
		if rp.completeHonest != rp.aliveHonest {
			return auditErr("replayed trace does not reach honest completion (%d/%d honest clients complete)",
				rp.completeHonest, rp.honestClients)
		}
	} else if rp.complete != rp.aliveClients {
		return auditErr("replayed trace does not reach completion (%d/%d alive clients complete, %d rejoins pending)",
			rp.complete, rp.aliveClients, 0)
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
	for v := 0; v < c.Nodes; v++ {
		if !rp.have[v].Equal(res.FinalHave[v]) {
			return auditErr("node %d final block set differs from recorded snapshot", v)
		}
		if rp.completion[v] != res.ClientCompletion[v] {
			return auditErr("node %d completion tick: replay %d, result %d", v, rp.completion[v], res.ClientCompletion[v])
		}
	}
	for v, a := range res.FinalAlive {
		if rp.alive[v] != a {
			return auditErr("node %d final liveness: replay %v, result %v", v, rp.alive[v], a)
		}
	}
	return nil
}
