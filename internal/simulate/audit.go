package simulate

import (
	"errors"
	"fmt"
	"math"

	"barterdist/internal/bitset"
	"barterdist/internal/fault"
	"barterdist/internal/parallel"
	"barterdist/internal/swarm"
	"barterdist/internal/trace"
)

// ErrAudit wraps every RunAudit failure so callers can distinguish
// "the recorded run broke an invariant" from configuration errors.
var ErrAudit = errors.New("simulate: audit failed")

func auditErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrAudit, fmt.Sprintf(format, args...))
}

// auditTasks is the fixed partition width of the parallel audit: the
// tick axis is cut into auditTasks contiguous chunks (capacity and
// validity checks) and the node axis into auditTasks residue lanes
// (liveness, store-and-forward, delivery, completion, events). The
// partition never depends on AuditWorkers — workers only pick up
// pre-cut tasks — which is what makes verdicts worker-count-invariant.
const auditTasks = 8

// auditPoint pinpoints one invariant violation found during replay.
// Points are ordered by (tick, phase, pos, prio); the minimum over all
// tasks is exactly the error a single sequential replay would have hit
// first, because each task scans its own slice of the work in that
// order and every check site has a fixed priority matching the
// sequential check order.
type auditPoint struct {
	tick  int   // 1-based tick (for fault events: effective application tick)
	phase uint8 // 0 fault-log events, 1 validation, 2 delivery
	pos   int   // global transfer index, or fault-log event index
	prio  uint8 // check order within (tick, phase, pos)
	err   error
}

// better returns the smaller of two points (nil = no error found).
func better(a, b *auditPoint) *auditPoint {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.tick != b.tick:
		if a.tick < b.tick {
			return a
		}
		return b
	case a.phase != b.phase:
		if a.phase < b.phase {
			return a
		}
		return b
	case a.pos != b.pos:
		if a.pos < b.pos {
			return a
		}
		return b
	case a.prio <= b.prio:
		return a
	}
	return b
}

// auditSums is one lane's contribution to the whole-run aggregates the
// sequential auditor accumulated in a single pass. Sums are only
// consulted when no replay point fired, so lanes that bail early on an
// error may leave them partial.
type auditSums struct {
	useful, total, lost         int
	kind                        [trace.NumKinds]int
	honestUseful, honestWasted  int
	complete, aliveClients      int
	completeHonest, aliveHonest int
	earlyExits                  int
	comp                        int // clients whose completion tick is set
}

func (s *auditSums) add(o *auditSums) {
	s.useful += o.useful
	s.total += o.total
	s.lost += o.lost
	for k := range s.kind {
		s.kind[k] += o.kind[k]
	}
	s.honestUseful += o.honestUseful
	s.honestWasted += o.honestWasted
	s.complete += o.complete
	s.aliveClients += o.aliveClients
	s.completeHonest += o.completeHonest
	s.aliveHonest += o.aliveHonest
	s.earlyExits += o.earlyExits
	s.comp += o.comp
}

// auditOut is one task's result: the earliest replay point it found,
// its earliest final-state mismatches (checked only after a clean
// replay), and its aggregate sums.
type auditOut struct {
	pt   *auditPoint // phases 0-2 (events / validation / delivery)
	fin3 *auditPoint // final per-node have/completion mismatch (pos = node)
	fin4 *auditPoint // final per-node liveness mismatch (pos = node)
	sums auditSums
}

// auditPre is the sequential O(events) pre-pass over the fault log: it
// assigns every event the tick at which the sequential replay applies
// it (the log cursor only moves forward, so a time regression inherits
// its predecessor's tick), performs the order- and mode-checks that
// need no per-node state, and counts the global arrival/departure
// tallies.
type auditPre struct {
	eff      []int // effective application tick; leftover events keep ticks+2
	pt       *auditPoint
	leftover int
	departed int
	arrived  int
}

func auditPrepass(c Config, res *Result, open, tracked bool) auditPre {
	ticks := res.Trace.Ticks()
	pre := auditPre{eff: make([]int, len(res.FaultLog))}
	record := func(i int, prio uint8, err error) {
		pre.pt = better(pre.pt, &auditPoint{tick: pre.eff[i], phase: 0, pos: i, prio: prio, err: err})
	}
	nextArrive := 1
	prev := 1
	for i, ev := range res.FaultLog {
		// The sequential cursor stops for good at the first event with
		// Time beyond the last replayed tick (NaN compares false, so it
		// also stops there): everything from that index on is leftover.
		if !(ev.Time <= float64(ticks+1)) {
			pre.leftover = len(res.FaultLog) - i
			for j := i; j < len(res.FaultLog); j++ {
				pre.eff[j] = ticks + 2
			}
			break
		}
		e := int(math.Ceil(ev.Time))
		if e < 1 {
			e = 1
		}
		if e < prev {
			e = prev
		}
		pre.eff[i] = e
		prev = e

		v := int(ev.Node)
		if v <= 0 || v >= c.Nodes {
			record(i, 0, auditErr("fault log: event %v targets invalid node %d", ev.Kind, v))
			continue
		}
		if !tracked {
			record(i, 1, auditErr("fault log present but result reports a fault-free run"))
			continue
		}
		switch ev.Kind {
		case fault.Arrive:
			if !open {
				record(i, 2, auditErr("tick %v: arrival event in a closed-system run", ev.Time))
				continue
			}
			if v != nextArrive {
				record(i, 3, auditErr("tick %v: node %d arrives out of order (expected %d)", ev.Time, v, nextArrive))
				continue
			}
			nextArrive++
		case fault.Depart:
			if !open {
				record(i, 2, auditErr("tick %v: departure event in a closed-system run", ev.Time))
				continue
			}
			pre.departed++
		case fault.Crash:
			if open {
				record(i, 2, auditErr("tick %v: crash event in an open-system run", ev.Time))
			}
		case fault.Rejoin:
			if open {
				record(i, 2, auditErr("tick %v: rejoin event in an open-system run", ev.Time))
			}
		default:
			record(i, 2, auditErr("fault log: unknown event kind %d", uint8(ev.Kind)))
		}
	}
	pre.arrived = nextArrive - 1
	return pre
}

// auditChunk replays one contiguous tick range and checks the
// state-free validation invariants: index ranges, self-transfers, and
// the per-tick upload/download capacity counters. These checks carry
// validation priorities 0-3 and 7-8; the state-dependent priorities
// 4-6 (liveness, store-and-forward) belong to the node lanes, and the
// point merge restores the sequential per-transfer check order.
//
// Capacity counting here is a superset of the sequential auditor's
// (which stops counting at a transfer's first failed check): the extra
// counts can only produce a spurious cap point *after* a genuine
// lane/structural point in the same tick, which the minimum-point
// reduction discards.
func auditChunk(c Config, res *Result, ci int) *auditPoint {
	l := res.Trace
	T := l.Ticks()
	lo, hi := 1+ci*T/auditTasks, (ci+1)*T/auditTasks
	if lo > hi {
		return nil
	}
	caps := newCapScratch(c.Nodes)
	var w trace.Win
	n, k := c.Nodes, c.Blocks
	for t := lo; t <= hi; t++ {
		start, end := l.TickSpan(t - 1)
		caps.reset(t)
		for i := start; i < end; {
			from, to, block, base, wend := l.Window(&w, i)
			stop := end
			if wend < stop {
				stop = wend
			}
			for ; i < stop; i++ {
				j := i - base
				f := int(int32(from[j]))
				v := int(int32(to[j]))
				b := int(int32(block[j]))
				var inner error
				var prio uint8
				switch {
				case f < 0 || f >= n:
					inner, prio = fmt.Errorf("sender %d out of range", f), 0
				case v < 0 || v >= n:
					inner, prio = fmt.Errorf("receiver %d out of range", v), 1
				case f == v:
					inner, prio = fmt.Errorf("node %d transfers to itself", f), 2
				case b < 0 || b >= k:
					inner, prio = fmt.Errorf("block %d out of range", b), 3
				default:
					upCap := c.UploadCap
					if f == 0 {
						upCap = c.ServerUploadCap
					}
					if int(caps.addUp(f)) > upCap {
						inner, prio = fmt.Errorf("node %d exceeds upload cap %d", f, upCap), 7
					} else if used := caps.addDown(v); c.DownloadCap != Unlimited && int(used) > c.DownloadCap {
						inner, prio = fmt.Errorf("node %d exceeds download cap %d", v, c.DownloadCap), 8
					}
				}
				if inner != nil {
					return &auditPoint{tick: t, phase: 1, pos: i, prio: prio, err: auditErr("tick %d: %v", t, inner)}
				}
			}
		}
	}
	return nil
}

// auditLane replays the whole trace for the nodes of one residue lane
// (node v belongs to lane v % auditTasks). A lane is self-contained:
// every check and every piece of state it touches — liveness, block
// sets, completion ticks, per-receiver delivery accounting, the
// per-node fault-event preconditions — depends only on events and
// deliveries targeting its own nodes, so lanes never communicate. The
// lane scans ticks, and positions within a tick, in ascending order
// with fixed per-site priorities, so its first hit is its minimal
// point and it can stop early.
func auditLane(c Config, res *Result, pre *auditPre, honest []bool, open, tracked bool, lane int) auditOut {
	l := res.Trace
	T := l.Ticks()
	n, k := c.Nodes, c.Blocks
	adversarial := honest != nil

	slots := 0
	if lane < n {
		slots = (n - lane + auditTasks - 1) / auditTasks
	}
	have := make([]*bitset.Set, slots)
	completion := make([]int, slots)
	var alive []bool
	if tracked {
		alive = make([]bool, slots)
	}
	var out auditOut
	sums := &out.sums
	for v := lane; v < n; v += auditTasks {
		s := v >> 3
		have[s] = bitset.New(k)
		if v == 0 {
			for b := 0; b < k; b++ {
				have[s].Add(b)
			}
		}
		if tracked {
			if open {
				alive[s] = v == 0
			} else {
				alive[s] = true
				if v > 0 {
					sums.aliveClients++
				}
			}
		}
	}
	if adversarial {
		// The sequential auditor starts aliveHonest at the full honest
		// client count (adversary plans do not compose with arrivals).
		for v := lane; v < n; v += auditTasks {
			if v > 0 && honest[v] {
				sums.aliveHonest++
			}
		}
	}

	ei := 0
	applyEvents := func(t int) *auditPoint {
		for ei < len(pre.eff) && pre.eff[ei] <= t {
			i := ei
			ev := res.FaultLog[i]
			ei++
			v := int(ev.Node)
			if v <= 0 || v >= n || v%auditTasks != lane || !tracked {
				continue // out of range / foreign lane: prepass owns those checks
			}
			s := v >> 3
			switch ev.Kind {
			case fault.Arrive:
				if !open {
					continue // mode mismatch: prepass point, lower prio
				}
				if alive[s] {
					return &auditPoint{tick: pre.eff[i], phase: 0, pos: i, prio: 4,
						err: auditErr("tick %v: node %d arrives while present", ev.Time, v)}
				}
				if have[s].Count() != 0 {
					return &auditPoint{tick: pre.eff[i], phase: 0, pos: i, prio: 5,
						err: auditErr("tick %v: node %d arrives holding blocks", ev.Time, v)}
				}
				alive[s] = true
				sums.aliveClients++
			case fault.Depart:
				if !open {
					continue
				}
				if !alive[s] {
					return &auditPoint{tick: pre.eff[i], phase: 0, pos: i, prio: 4,
						err: auditErr("tick %v: node %d departs while absent", ev.Time, v)}
				}
				alive[s] = false
				sums.aliveClients--
				if have[s].Full() {
					sums.complete--
				} else {
					sums.earlyExits++
				}
			case fault.Crash:
				if open {
					continue
				}
				if !alive[s] {
					return &auditPoint{tick: pre.eff[i], phase: 0, pos: i, prio: 4,
						err: auditErr("tick %v: node %d crashes while already dead", ev.Time, v)}
				}
				alive[s] = false
				sums.aliveClients--
				if have[s].Full() {
					sums.complete--
				}
				if adversarial && honest[v] {
					sums.aliveHonest--
					if have[s].Full() {
						sums.completeHonest--
					}
				}
			case fault.Rejoin:
				if open {
					continue
				}
				if alive[s] {
					return &auditPoint{tick: pre.eff[i], phase: 0, pos: i, prio: 4,
						err: auditErr("tick %v: node %d rejoins while alive", ev.Time, v)}
				}
				alive[s] = true
				sums.aliveClients++
				if adversarial && honest[v] {
					sums.aliveHonest++
				}
				if ev.Wiped {
					have[s].Clear()
					completion[s] = 0
				} else if have[s].Full() {
					sums.complete++
					if adversarial && honest[v] {
						sums.completeHonest++
					}
				}
			}
		}
		return nil
	}

	var w trace.Win
	var dropIdx []int32
	var dropKinds []uint8
	for t := 1; t <= T; t++ {
		if out.pt = applyEvents(t); out.pt != nil {
			return out
		}
		start, end := l.TickSpan(t - 1)
		// Validation half-tick: liveness and store-and-forward against
		// the start-of-tick state, before any delivery lands.
		for i := start; i < end; {
			from, to, block, base, wend := l.Window(&w, i)
			stop := end
			if wend < stop {
				stop = wend
			}
			for ; i < stop; i++ {
				j := i - base
				f := int(int32(from[j]))
				v := int(int32(to[j]))
				fOwn := f >= 0 && f < n && f%auditTasks == lane
				vOwn := v >= 0 && v < n && v%auditTasks == lane
				if !fOwn && !vOwn {
					continue
				}
				if fOwn && tracked && !alive[f>>3] {
					out.pt = &auditPoint{tick: t, phase: 1, pos: i, prio: 4,
						err: auditErr("tick %d: %v", t, fmt.Errorf("dead node %d cannot upload", f))}
					return out
				}
				if vOwn && tracked && !alive[v>>3] {
					out.pt = &auditPoint{tick: t, phase: 1, pos: i, prio: 5,
						err: auditErr("tick %d: %v", t, fmt.Errorf("dead node %d cannot download", v))}
					return out
				}
				if fOwn {
					if b := int(int32(block[j])); b >= 0 && b < k && !have[f>>3].Has(b) {
						out.pt = &auditPoint{tick: t, phase: 1, pos: i, prio: 6,
							err: auditErr("tick %d: %v", t, fmt.Errorf("store-and-forward violation: node %d does not hold block %d", f, b))}
						return out
					}
				}
			}
		}
		// Delivery half-tick: drop-aware accounting for owned receivers.
		dropIdx, dropKinds = l.AppendTickDrops(t-1, dropIdx[:0], dropKinds[:0])
		dp := 0
		for i := start; i < end; {
			_, to, block, base, wend := l.Window(&w, i)
			stop := end
			if wend < stop {
				stop = wend
			}
			for ; i < stop; i++ {
				j := i - base
				dropped := false
				kind := LostKindFault
				if dp < len(dropIdx) && int(dropIdx[dp]) == i-start {
					dropped = true
					if dp < len(dropKinds) {
						kind = dropKinds[dp]
					}
					dp++
				}
				v := int(int32(to[j]))
				if v < 0 || v >= n || v%auditTasks != lane {
					continue
				}
				if dropped {
					if adversarial {
						if int(kind) >= len(sums.kind) {
							out.pt = &auditPoint{tick: t, phase: 2, pos: i, prio: 0,
								err: auditErr("tick %d: unknown drop kind %d", t, kind)}
							return out
						}
						sums.kind[kind]++
						if kind != LostKindFault && kind != LostKindFaultCorrupt && honest[v] {
							sums.honestWasted++
						}
					}
					sums.lost++
					sums.total++
					continue
				}
				b := int(int32(block[j]))
				if b < 0 || b >= k {
					continue // structurally invalid: the tick chunk owns the point
				}
				if have[v>>3].Add(b) {
					sums.useful++
					if adversarial && honest[v] {
						sums.honestUseful++
					}
					if v != 0 && have[v>>3].Full() {
						sums.complete++
						completion[v>>3] = t
						if adversarial && honest[v] {
							sums.completeHonest++
						}
					}
				}
				sums.total++
			}
		}
	}
	if out.pt = applyEvents(T + 1); out.pt != nil {
		return out
	}

	// Final-state comparison, in ascending node order within the lane;
	// the cross-lane merge restores the global ascending order.
	for v := lane; v < n; v += auditTasks {
		s := v >> 3
		if !have[s].Equal(res.FinalHave[v]) {
			out.fin3 = &auditPoint{tick: 0, phase: 3, pos: v, prio: 0,
				err: auditErr("node %d final block set differs from recorded snapshot", v)}
			break
		}
		if completion[s] != res.ClientCompletion[v] {
			out.fin3 = &auditPoint{tick: 0, phase: 3, pos: v, prio: 1,
				err: auditErr("node %d completion tick: replay %d, result %d", v, completion[s], res.ClientCompletion[v])}
			break
		}
	}
	if res.FinalAlive != nil && tracked {
		for v := lane; v < n && v < len(res.FinalAlive); v += auditTasks {
			if alive[v>>3] != res.FinalAlive[v] {
				out.fin4 = &auditPoint{tick: 0, phase: 4, pos: v, prio: 0,
					err: auditErr("node %d final liveness: replay %v, result %v", v, alive[v>>3], res.FinalAlive[v])}
				break
			}
		}
	}
	for v := lane; v < n; v += auditTasks {
		if v > 0 && completion[v>>3] != 0 {
			sums.comp++
		}
	}
	return out
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
// The replay is partitioned into fixed tick chunks (capacity and
// validity) and fixed node-residue lanes (liveness, store-and-forward,
// delivery, completion, fault events) executed on cfg.AuditWorkers
// workers. The partition is independent of the worker count and every
// check site carries a priority mirroring the sequential check order,
// so the verdict — and the error text — is byte-identical for any
// AuditWorkers value.
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
	if res.CompletionTime != res.Trace.Ticks() {
		return auditErr("CompletionTime %d does not match trace length %d",
			res.CompletionTime, res.Trace.Ticks())
	}
	open := res.Open != nil
	faulty := len(res.FaultLog) > 0 || res.FinalAlive != nil
	tracked := open || faulty
	adversarial := honest != nil
	honestClients := 0
	if adversarial {
		for _, h := range honest[1:] {
			if h {
				honestClients++
			}
		}
		if !res.Trace.Kinded() {
			return auditErr("adversarial result's trace records no drop kinds")
		}
	}

	pre := auditPrepass(c, res, open, tracked)

	workers := c.AuditWorkers
	if workers <= 0 {
		workers = 1
	}
	outs, perr := parallel.Map(workers, 2*auditTasks, func(i int) (auditOut, error) {
		if i < auditTasks {
			return auditOut{pt: auditChunk(c, res, i)}, nil
		}
		return auditLane(c, res, &pre, honest, open, tracked, i-auditTasks), nil
	})
	if perr != nil {
		return perr // a panicking task, surfaced at the lowest index
	}

	pt := pre.pt
	var fin3, fin4 *auditPoint
	var sums auditSums
	for i := range outs {
		pt = better(pt, outs[i].pt)
		fin3 = better(fin3, outs[i].fin3)
		fin4 = better(fin4, outs[i].fin4)
		sums.add(&outs[i].sums)
	}
	if pt != nil {
		return pt.err
	}
	if pre.leftover > 0 {
		return auditErr("fault log has %d events beyond the recorded run", pre.leftover)
	}

	// The run must actually have finished under the engine's criterion.
	if open {
		if err := swarm.AuditOpen(res.Open, c.Nodes, swarm.OpenCounts{
			Arrived: pre.arrived, Departed: pre.departed, EarlyExits: sums.earlyExits,
			Completed: sums.comp, Present: sums.aliveClients, Complete: sums.complete,
		}); err != nil {
			return auditErr("%v", err)
		}
	} else {
		// st.AllClientsComplete() over the merged lane counters (the
		// replay never schedules rejoins, so none are pending).
		done := false
		if adversarial {
			if !tracked {
				done = sums.completeHonest == honestClients
			} else {
				done = sums.completeHonest == sums.aliveHonest
			}
		} else if !tracked {
			done = sums.complete == c.Nodes-1
		} else {
			done = sums.complete == sums.aliveClients
		}
		if !done {
			if adversarial {
				return auditErr("replayed trace does not reach honest completion (%d/%d honest clients complete)",
					sums.completeHonest, honestClients)
			}
			aliveClients := c.Nodes - 1
			if tracked {
				aliveClients = sums.aliveClients
			}
			return auditErr("replayed trace does not reach completion (%d/%d alive clients complete, %d rejoins pending)",
				sums.complete, aliveClients, 0)
		}
	}
	if sums.useful != res.UsefulTransfers {
		return auditErr("replay counts %d useful transfers, result reports %d", sums.useful, res.UsefulTransfers)
	}
	if sums.total != res.TotalTransfers {
		return auditErr("replay counts %d total transfers, result reports %d", sums.total, res.TotalTransfers)
	}
	corrupt := res.CorruptTransfers
	if adversarial {
		if sums.kind[LostKindFault] != res.LostTransfers || sums.kind[LostKindFaultCorrupt] != corrupt {
			return auditErr("replay counts %d lost + %d corrupt fault drops, result reports %d + %d",
				sums.kind[LostKindFault], sums.kind[LostKindFaultCorrupt], res.LostTransfers, corrupt)
		}
		if sums.kind[LostKindRefused] != res.AdvRefused ||
			sums.kind[LostKindStalled] != res.AdvStalled ||
			sums.kind[LostKindGarbage] != res.AdvCorrupt {
			return auditErr("replay counts %d refused / %d stalled / %d garbage adversary drops, result reports %d / %d / %d",
				sums.kind[LostKindRefused], sums.kind[LostKindStalled], sums.kind[LostKindGarbage],
				res.AdvRefused, res.AdvStalled, res.AdvCorrupt)
		}
		if sums.honestUseful != res.HonestUseful || sums.honestWasted != res.HonestWasted {
			return auditErr("replay counts %d honest-useful / %d honest-wasted, result reports %d / %d",
				sums.honestUseful, sums.honestWasted, res.HonestUseful, res.HonestWasted)
		}
	} else if sums.lost != res.LostTransfers+corrupt {
		return auditErr("replay counts %d dropped transfers, result reports %d lost + %d corrupt",
			sums.lost, res.LostTransfers, res.CorruptTransfers)
	}
	if fin3 != nil {
		return fin3.err
	}
	if res.FinalAlive != nil {
		if !tracked {
			return auditErr("result records a liveness mask but no fault log")
		}
		if fin4 != nil {
			return fin4.err
		}
	}
	return nil
}
