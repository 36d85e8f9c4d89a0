package asim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"barterdist/internal/bitset"
	"barterdist/internal/fault"
	"barterdist/internal/parallel"
	"barterdist/internal/swarm"
)

// ErrAudit wraps every RunAudit failure so callers can distinguish a
// broken recorded run from configuration errors.
var ErrAudit = errors.New("asim: audit failed")

func auditErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrAudit, fmt.Sprintf(format, args...))
}

// durEps is the relative tolerance for transfer-duration checks; the
// engine computes End = Start + 1/rate in floating point, so replayed
// durations can differ from 1/rate by rounding.
const durEps = 1e-9

// aRecTasks is the fixed partition width of the parallel audit: the
// trace is split into aRecTasks contiguous record chunks for the
// stateless per-record checks, and the port checks into aRecTasks node
// lanes. Fixed, so the partition — and therefore the verdict — is
// independent of the worker count.
const aRecTasks = 8

// aPoint is one audit finding, keyed for the deterministic merge:
// phase 0 = fault-log sanity, 1 = per-record checks (pos = record
// index, prio = the check's position in the sequential auditor's
// order), 2 = port checks (pos = stage*Nodes + node), 3 = aggregate
// checks. The lexicographically smallest point across all tasks is
// exactly the error the sequential auditor would have hit first.
type aPoint struct {
	phase uint8
	pos   int
	prio  int
	err   error
}

// aBetter returns the lexicographically smaller of two points (nil =
// no finding).
func aBetter(a, b *aPoint) *aPoint {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
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

// eventIndex answers the auditor's two liveness queries — aliveAt and
// eventDuring — in O(log e) per call from per-node sorted event lists,
// replacing a scan of the whole fault log per trace record. The index
// assumes a time-ordered log; an unordered one (only a doctored log can
// be) fails the fault-log sanity check, whose phase-0 finding outranks
// every finding the index feeds.
type eventIndex struct {
	times [][]float64 // per-node event times, log order
	up    [][]bool    // per-node resulting liveness after each event
	open  bool
}

func buildEventIndex(log []fault.Event, open bool, nodes int) *eventIndex {
	ix := &eventIndex{
		times: make([][]float64, nodes),
		up:    make([][]bool, nodes),
		open:  open,
	}
	for _, ev := range log {
		v := int(ev.Node)
		if v < 0 || v >= nodes {
			continue // sanity (phase 0) reports this; keep the index safe
		}
		ix.times[v] = append(ix.times[v], ev.Time)
		ix.up[v] = append(ix.up[v], ev.Kind == fault.Rejoin || ev.Kind == fault.Arrive)
	}
	return ix
}

// aliveAt reports node v's liveness at time t (events at exactly t
// included — crash arrivals are continuous, so exact collisions with
// transfer boundaries do not occur in engine-produced runs). In open
// mode clients are absent until their Arrive event.
func (ix *eventIndex) aliveAt(v int, t float64) bool {
	times := ix.times[v]
	i := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if i == 0 {
		return v == 0 || !ix.open
	}
	return ix.up[v][i-1]
}

// eventDuring reports a fault event touching v strictly inside
// (start, end) — any such event must have aborted the transfer.
func (ix *eventIndex) eventDuring(v int, start, end float64) bool {
	times := ix.times[v]
	i := sort.Search(len(times), func(i int) bool { return times[i] > start })
	return i < len(times) && times[i] < end
}

// recordSkip reports whether a trace record is structurally invalid —
// the stateless chunk pass (auditRecords) reports it with a smaller key
// than anything downstream, so the stateful replay and the port lanes
// just skip it to stay panic-free; their state past that record can
// only feed points with larger keys, which the merge discards.
func recordSkip(c Config, tr TransferRecord, adversarial bool, honest []bool) bool {
	from, to, b := int(tr.From), int(tr.To), int(tr.Block)
	return from < 0 || from >= c.Nodes || to < 0 || to >= c.Nodes ||
		from == to || b < 0 || b >= c.Blocks || to == 0 ||
		tr.Start < 0 || tr.End <= tr.Start ||
		(tr.Corrupt && !tr.Lost) || (tr.Adversary && !tr.Lost) ||
		(tr.Adversary && !adversarial) || (tr.Adversary && honest[tr.From])
}

// auditRecords runs the stateless per-record checks (the sequential
// auditor's prios 0-13: end monotonicity, the structural switch, the
// bandwidth model, and the three liveness checks) over record chunk ci
// and returns the chunk's earliest finding. Records are scanned in
// order and prios ascend within a record, so the first hit is minimal.
func auditRecords(c Config, res *Result, ix *eventIndex, honest []bool, adversarial bool, ci int) *aPoint {
	lo := len(res.Trace) * ci / aRecTasks
	hi := len(res.Trace) * (ci + 1) / aRecTasks
	prevEnd := math.Inf(-1)
	if lo > 0 {
		prevEnd = res.Trace[lo-1].End
	}
	pt := func(i, prio int, err error) *aPoint {
		return &aPoint{phase: 1, pos: i, prio: prio, err: err}
	}
	for i := lo; i < hi; i++ {
		tr := res.Trace[i]
		if tr.End < prevEnd {
			return pt(i, 0, auditErr("trace record %d ends at %v, before its predecessor (%v)", i, tr.End, prevEnd))
		}
		prevEnd = tr.End
		from, to, b := int(tr.From), int(tr.To), int(tr.Block)
		switch {
		case from < 0 || from >= c.Nodes || to < 0 || to >= c.Nodes:
			return pt(i, 1, auditErr("trace record %d: nodes %d -> %d out of range", i, from, to))
		case from == to:
			return pt(i, 2, auditErr("trace record %d: node %d transfers to itself", i, from))
		case b < 0 || b >= c.Blocks:
			return pt(i, 3, auditErr("trace record %d: block %d out of range", i, b))
		case to == 0:
			return pt(i, 4, auditErr("trace record %d: upload to the server", i))
		case tr.Start < 0 || tr.End <= tr.Start:
			return pt(i, 5, auditErr("trace record %d: degenerate interval [%v, %v]", i, tr.Start, tr.End))
		case tr.Corrupt && !tr.Lost:
			return pt(i, 6, auditErr("trace record %d: corrupt but not marked lost", i))
		case tr.Adversary && !tr.Lost:
			return pt(i, 7, auditErr("trace record %d: adversary-faulted but not marked lost", i))
		case tr.Adversary && !adversarial:
			return pt(i, 8, auditErr("trace record %d: adversary-faulted transfer in a run without strategies", i))
		case tr.Adversary && honest[tr.From]:
			return pt(i, 9, auditErr("trace record %d: honest node %d recorded as misbehaving", i, tr.From))
		}
		// Bandwidth model: duration is exactly one block at the reserved
		// port rate.
		rate := c.UploadRate[from]
		down := c.DownloadRate[to]
		if c.DownloadPorts > 0 {
			down /= float64(c.DownloadPorts)
		}
		if down < rate {
			rate = down
		}
		want := 1 / rate
		if d := tr.End - tr.Start; math.Abs(d-want) > durEps*math.Max(1, want) {
			return pt(i, 10, auditErr("trace record %d: %d->%d duration %v, bandwidth model requires %v",
				i, from, to, d, want))
		}
		// Liveness across the whole flight.
		if !ix.aliveAt(from, tr.Start) {
			return pt(i, 11, auditErr("t=%v: dead node %d starts an upload", tr.Start, from))
		}
		if !ix.aliveAt(to, tr.Start) {
			return pt(i, 12, auditErr("t=%v: node %d uploads to dead node %d", tr.Start, from, to))
		}
		if ix.eventDuring(from, tr.Start, tr.End) || ix.eventDuring(to, tr.Start, tr.End) {
			return pt(i, 13, auditErr("trace record %d: %d->%d survives a fault event mid-flight; the engine aborts those",
				i, from, to))
		}
	}
	return nil
}

// aInterval is one transfer's flight, for the port-discipline checks.
type aInterval struct {
	start, end float64
	block      int32
}

// auditPorts checks the serial-upload and download-port disciplines for
// the nodes of one lane (node % aRecTasks == lane). Senders order
// before receivers and nodes ascend within a stage, matching the
// sequential auditor's check order exactly.
func auditPorts(c Config, res *Result, adversarial bool, honest []bool, lane int) *aPoint {
	bySender := make(map[int][]aInterval)
	byRecv := make(map[int][]aInterval)
	for _, tr := range res.Trace {
		if recordSkip(c, tr, adversarial, honest) {
			continue
		}
		from, to := int(tr.From), int(tr.To)
		if from%aRecTasks == lane {
			bySender[from] = append(bySender[from], aInterval{tr.Start, tr.End, tr.Block})
		}
		if to%aRecTasks == lane {
			byRecv[to] = append(byRecv[to], aInterval{tr.Start, tr.End, tr.Block})
		}
	}
	// Serial upload port: each sender's transfers must not overlap.
	for u := lane; u < c.Nodes; u += aRecTasks {
		ivs := bySender[u]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				return &aPoint{phase: 2, pos: u, err: auditErr("node %d uploads concurrently at t=%v (serial upload port)", u, ivs[i].start)}
			}
		}
	}
	// Download ports: bounded concurrency, and a block at most once in
	// flight to the same receiver at a time.
	for v := lane; v < c.Nodes; v += aRecTasks {
		ivs := byRecv[v]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		var active []aInterval
		for _, iv := range ivs {
			keep := active[:0]
			for _, a := range active {
				if a.end > iv.start {
					keep = append(keep, a)
				}
			}
			active = keep
			for _, a := range active {
				if a.block == iv.block {
					return &aPoint{phase: 2, pos: c.Nodes + v, err: auditErr("node %d has block %d twice in flight at t=%v", v, iv.block, iv.start)}
				}
			}
			active = append(active, iv)
			if c.DownloadPorts != Unlimited && len(active) > c.DownloadPorts {
				return &aPoint{phase: 2, pos: c.Nodes + v, err: auditErr("node %d exceeds %d download ports at t=%v", v, c.DownloadPorts, iv.start)}
			}
		}
	}
	return nil
}

// auditReplay is the audit's one stateful task: fault-log sanity
// (phase 0), the sequential store-and-forward and double-delivery
// checks (phase 1, prios 14-15 — every stateless check of the same
// record keys below them), and the aggregate comparisons against the
// recorded Result (phase 3), in exactly the sequential auditor's order.
func auditReplay(c Config, res *Result, honest []bool, adversarial, open bool) *aPoint {
	sanity := func(i int, err error) *aPoint { return &aPoint{phase: 0, pos: i, err: err} }
	// Fault-log sanity: time-ordered, clients only, alternating states.
	// Open-system logs instead hold Arrive/Depart events: the swarm
	// starts empty (server only), ids are handed out in arrival order,
	// and departures are permanent.
	alive := make([]bool, c.Nodes)
	alive[0] = true
	if !open {
		for i := range alive {
			alive[i] = true
		}
	}
	nextArrive := 1
	departed, earlyExits := 0, 0
	for i, ev := range res.FaultLog {
		v := int(ev.Node)
		if v <= 0 || v >= c.Nodes {
			return sanity(i, auditErr("fault log: event %d targets invalid node %d", i, v))
		}
		if math.IsNaN(ev.Time) || ev.Time < 0 {
			return sanity(i, auditErr("fault log: event %d has time %v", i, ev.Time))
		}
		if i > 0 && ev.Time < res.FaultLog[i-1].Time {
			return sanity(i, auditErr("fault log: event %d goes back in time (%v after %v)",
				i, ev.Time, res.FaultLog[i-1].Time))
		}
		switch ev.Kind {
		case fault.Crash:
			if open {
				return sanity(i, auditErr("t=%v: crash event in an open-system run", ev.Time))
			}
			if !alive[v] {
				return sanity(i, auditErr("t=%v: node %d crashes while already dead", ev.Time, v))
			}
			alive[v] = false
		case fault.Rejoin:
			if open {
				return sanity(i, auditErr("t=%v: rejoin event in an open-system run", ev.Time))
			}
			if alive[v] {
				return sanity(i, auditErr("t=%v: node %d rejoins while alive", ev.Time, v))
			}
			alive[v] = true
		case fault.Arrive:
			if !open {
				return sanity(i, auditErr("t=%v: arrival event in a closed-system run", ev.Time))
			}
			if v != nextArrive {
				return sanity(i, auditErr("t=%v: node %d arrives out of order (expected %d)", ev.Time, v, nextArrive))
			}
			nextArrive++
			alive[v] = true
		case fault.Depart:
			if !open {
				return sanity(i, auditErr("t=%v: departure event in a closed-system run", ev.Time))
			}
			if !alive[v] {
				return sanity(i, auditErr("t=%v: node %d departs while absent", ev.Time, v))
			}
			alive[v] = false
			departed++
		default:
			return sanity(i, auditErr("fault log: unknown event kind %d", uint8(ev.Kind)))
		}
	}

	// Replay state. arrivedAt[v][b] is when v last acquired b (+Inf =
	// not held); have mirrors it as a bitset for the final comparison.
	have := make([]*bitset.Set, c.Nodes)
	arrivedAt := make([][]float64, c.Nodes)
	for v := range have {
		have[v] = bitset.New(c.Blocks)
		arrivedAt[v] = make([]float64, c.Blocks)
		for b := range arrivedAt[v] {
			arrivedAt[v][b] = math.Inf(1)
		}
	}
	for b := 0; b < c.Blocks; b++ {
		have[0].Add(b)
		arrivedAt[0][b] = 0
	}
	completion := make([]float64, c.Nodes)
	delivered, lost, corrupt := 0, 0, 0
	advStalled, advGarbage := 0, 0
	honestUseful, honestWasted := 0, 0
	maxTime := 0.0

	logCursor := 0
	applyEvents := func(until float64) {
		for logCursor < len(res.FaultLog) && res.FaultLog[logCursor].Time < until {
			ev := res.FaultLog[logCursor]
			logCursor++
			if ev.Kind == fault.Rejoin && ev.Wiped {
				v := int(ev.Node)
				have[v].Clear()
				for b := range arrivedAt[v] {
					arrivedAt[v][b] = math.Inf(1)
				}
				completion[v] = 0
			}
			// Starvation accounting: a peer that departs before holding
			// the full file left early (same-time deliveries precede the
			// departure, matching the engine's event order).
			if ev.Kind == fault.Depart && !have[ev.Node].Full() {
				earlyExits++
			}
			if ev.Time > maxTime {
				maxTime = ev.Time
			}
		}
	}

	for i, tr := range res.Trace {
		if recordSkip(c, tr, adversarial, honest) {
			continue // a chunk task reports this record with a smaller key
		}
		from, to, b := int(tr.From), int(tr.To), int(tr.Block)
		// Store-and-forward at start time: the sender must have acquired
		// the block (and not lost it to a wipe) by tr.Start.
		applyEvents(tr.End)
		if arrivedAt[from][b] > tr.Start {
			return &aPoint{phase: 1, pos: i, prio: 14,
				err: auditErr("t=%v: node %d sends block %d it did not hold at upload start", tr.Start, from, b)}
		}
		if tr.End > maxTime {
			maxTime = tr.End
		}
		if tr.Lost {
			if tr.Adversary {
				if tr.Corrupt {
					advGarbage++
				} else {
					advStalled++
				}
				if honest[to] {
					honestWasted++
				}
			} else if tr.Corrupt {
				corrupt++
			} else {
				lost++
			}
			continue
		}
		if !have[to].Add(b) {
			return &aPoint{phase: 1, pos: i, prio: 15,
				err: auditErr("t=%v: node %d delivered block %d it already holds", tr.End, to, b)}
		}
		arrivedAt[to][b] = tr.End
		delivered++
		if adversarial && honest[to] {
			honestUseful++
		}
		if have[to].Full() {
			completion[to] = tr.End
		}
	}
	applyEvents(math.Inf(1))

	agg := func(err error) *aPoint { return &aPoint{phase: 3, err: err} }
	// The run must have finished under the engine's criterion: every
	// alive client — every alive *honest* client under an adversary
	// plan — holds the whole file. An open run instead ends on its
	// verdict, checked with the starvation identity (swarm.AuditOpen).
	if open {
		r := swarm.OpenCounts{Arrived: nextArrive - 1, Departed: departed, EarlyExits: earlyExits}
		for v := 1; v < c.Nodes; v++ {
			if alive[v] {
				r.Present++
				if have[v].Full() {
					r.Complete++
				}
			}
			if completion[v] != 0 {
				r.Completed++
			}
		}
		if err := swarm.AuditOpen(res.Open, c.Nodes, r); err != nil {
			return agg(auditErr("%v", err))
		}
	} else {
		for v := 1; v < c.Nodes; v++ {
			if adversarial && !honest[v] {
				continue
			}
			if alive[v] && !have[v].Full() {
				return agg(auditErr("replayed trace leaves alive client %d incomplete (%d/%d blocks)",
					v, have[v].Count(), c.Blocks))
			}
		}
	}
	if delivered != res.Transfers {
		return agg(auditErr("replay counts %d deliveries, result reports %d", delivered, res.Transfers))
	}
	if lost != res.Lost || corrupt != res.Corrupt {
		return agg(auditErr("replay counts %d lost + %d corrupt, result reports %d + %d",
			lost, corrupt, res.Lost, res.Corrupt))
	}
	if advStalled != res.AdvStalled || advGarbage != res.AdvCorrupt {
		return agg(auditErr("replay counts %d stalled + %d garbage adversary drops, result reports %d + %d",
			advStalled, advGarbage, res.AdvStalled, res.AdvCorrupt))
	}
	if adversarial && (honestUseful != res.HonestUseful || honestWasted != res.HonestWasted) {
		return agg(auditErr("replay counts %d honest-useful / %d honest-wasted, result reports %d / %d",
			honestUseful, honestWasted, res.HonestUseful, res.HonestWasted))
	}
	if len(res.Trace) > 0 || len(res.FaultLog) > 0 {
		// An open run's clock can outlive its last logged event: the
		// final handled event may be an unlogged protocol timer, and
		// finish() stamps CompletionTime with the engine clock.
		if open && res.CompletionTime < maxTime {
			return agg(auditErr("CompletionTime %v precedes the last recorded event (%v)",
				res.CompletionTime, maxTime))
		}
		if !open && res.CompletionTime != maxTime {
			return agg(auditErr("CompletionTime %v does not match the last recorded event (%v)",
				res.CompletionTime, maxTime))
		}
	}
	for v := 0; v < c.Nodes; v++ {
		if !have[v].Equal(res.FinalHave[v]) {
			return agg(auditErr("node %d final block set differs from recorded snapshot", v))
		}
		if v > 0 && completion[v] != res.ClientCompletion[v] {
			return agg(auditErr("node %d completion time: replay %v, result %v",
				v, completion[v], res.ClientCompletion[v]))
		}
	}
	if res.FinalAlive != nil {
		for v, a := range res.FinalAlive {
			if alive[v] != a {
				return agg(auditErr("node %d final liveness: replay %v, result %v", v, alive[v], a))
			}
		}
	}
	return nil
}

// RunAudit replays a recorded asynchronous run and verifies every
// engine invariant post hoc, given only the artifacts the run leaves
// behind (Config, Trace, FaultLog, FinalHave):
//
//   - the serial upload port: no sender has two overlapping transfers;
//   - download ports: no receiver exceeds DownloadPorts concurrent
//     receives, and no block is twice in flight to the same receiver;
//   - bandwidth: every transfer's duration is 1/min(up(u), down(v)/P);
//   - store-and-forward: the sender held the block when the transfer
//     started (wiped rejoins are replayed, so a block lost to a wipe
//     must be re-acquired before it can be forwarded again);
//   - liveness: both endpoints were alive for the whole flight — a
//     crash mid-transfer must have aborted it, so an aborted transfer
//     appearing in the trace is an error;
//   - accounting: delivery, loss, and corruption counts, per-client
//     completion times, the completion time, and the final block and
//     liveness state all match the recorded Result.
//
// A Result produced by Run with RecordTrace always passes; a doctored
// trace fails with a pinpointed ErrAudit. cfg.Fault and cfg.Adversary
// are ignored — the replay takes its adversity from res.FaultLog and
// res.Strategies, so auditing never consumes a (single-use) plan. For
// adversarial runs the drop causes are re-counted per kind and the
// honest-only completion criterion and honest stall accounting are
// re-derived from the trace.
//
// The audit runs as a fixed task partition — one stateful replay, the
// stateless per-record checks over aRecTasks contiguous record chunks,
// and the port disciplines over aRecTasks node lanes — executed on
// cfg.AuditWorkers OS workers and merged by smallest (phase, pos,
// prio) key. The partition does not depend on the worker count, so the
// verdict and the error text are byte-identical for every value,
// including the inline sequential AuditWorkers <= 1 path.
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
		return nil // vacuous run
	}
	honest, err := swarm.CheckArtifacts(c.Nodes, res.FinalHave, len(res.ClientCompletion), res.FinalAlive, res.Strategies)
	if err != nil {
		return auditErr("%v", err)
	}
	adversarial := honest != nil
	open := res.Open != nil
	ix := buildEventIndex(res.FaultLog, open, c.Nodes)

	workers := c.AuditWorkers
	if workers <= 0 {
		workers = 1
	}
	pts, perr := parallel.Map(workers, 1+2*aRecTasks, func(i int) (*aPoint, error) {
		switch {
		case i == 0:
			return auditReplay(c, res, honest, adversarial, open), nil
		case i <= aRecTasks:
			return auditRecords(c, res, ix, honest, adversarial, i-1), nil
		default:
			return auditPorts(c, res, adversarial, honest, i-1-aRecTasks), nil
		}
	})
	if perr != nil {
		return perr
	}
	var pt *aPoint
	for _, p := range pts {
		pt = aBetter(pt, p)
	}
	if pt != nil {
		return pt.err
	}
	return nil
}
