package asim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"barterdist/internal/fault"
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

// eventIndex answers the auditor's two liveness queries — aliveAt and
// eventDuring — in O(log e) per call from per-node sorted event lists,
// replacing a scan of the whole fault log per trace record. It is
// built only from a log that passed the fault-log sanity check, so
// every event targets a valid node and the log is time-ordered.
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
		v := ev.Node
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

// replay is RunAudit's re-derivation of a recorded run: the population
// (swarm.Replay) the fault log implies, the block sets rebuilt record by
// record from the trace, and the whole-run tallies the Result must
// match.
type replay struct {
	c           Config
	res         *Result
	honest      []bool // nil for compliant runs
	adversarial bool
	open        bool
	ix          *eventIndex

	// pop.Alive is the population after the whole fault log, from the
	// sanity pass; the block sets follow the trace.
	pop *swarm.Replay[float64]
	// arrivedAt[v][b] is when v last acquired b (+Inf = not held).
	arrivedAt                  [][]float64
	delivered, lost, corrupt   int
	advStalled, advGarbage     int
	honestUseful, honestWasted int
	maxTime                    float64
	logCursor                  int
}

func newReplay(c Config, res *Result, honest []bool) *replay {
	rp := &replay{
		c: c, res: res, honest: honest, adversarial: honest != nil, open: res.Open != nil,
		pop:       swarm.NewReplay[float64](c.Nodes, c.Blocks, res.Open != nil),
		arrivedAt: make([][]float64, c.Nodes),
	}
	for v := range rp.arrivedAt {
		rp.arrivedAt[v] = make([]float64, c.Blocks)
		at := math.Inf(1)
		if v == 0 {
			at = 0
		}
		for b := range rp.arrivedAt[v] {
			rp.arrivedAt[v][b] = at
		}
	}
	return rp
}

// checkFaultLog is the fault-log sanity pass: clients only, time-ordered,
// then each event's liveness transition (swarm.Replay.Transition). It
// leaves the final population in rp.pop.Alive.
func (rp *replay) checkFaultLog() error {
	for i, ev := range rp.res.FaultLog {
		if v := int(ev.Node); v <= 0 || v >= rp.c.Nodes {
			return auditErr("fault log: event %d targets invalid node %d", i, v)
		}
		if math.IsNaN(ev.Time) || ev.Time < 0 {
			return auditErr("fault log: event %d has time %v", i, ev.Time)
		}
		if i > 0 && ev.Time < rp.res.FaultLog[i-1].Time {
			return auditErr("fault log: event %d goes back in time (%v after %v)",
				i, ev.Time, rp.res.FaultLog[i-1].Time)
		}
		if err := rp.pop.Transition("t=", ev); err != nil {
			return auditErr("%v", err)
		}
	}
	return nil
}

// checkRecord runs the stateless checks on trace record i: end
// monotonicity, the structural switch, the bandwidth model, and the
// three liveness checks.
func (rp *replay) checkRecord(i int, tr TransferRecord, prevEnd float64) error {
	c := rp.c
	if tr.End < prevEnd {
		return auditErr("trace record %d ends at %v, before its predecessor (%v)", i, tr.End, prevEnd)
	}
	from, to, b := int(tr.From), int(tr.To), int(tr.Block)
	switch {
	case from < 0 || from >= c.Nodes || to < 0 || to >= c.Nodes:
		return auditErr("trace record %d: nodes %d -> %d out of range", i, from, to)
	case from == to:
		return auditErr("trace record %d: node %d transfers to itself", i, from)
	case b < 0 || b >= c.Blocks:
		return auditErr("trace record %d: block %d out of range", i, b)
	case to == 0:
		return auditErr("trace record %d: upload to the server", i)
	case !(tr.Start >= 0 && tr.End > tr.Start) || math.IsInf(tr.End, 0):
		// Negated, so NaN times (false in every comparison) fail too.
		return auditErr("trace record %d: degenerate interval [%v, %v]", i, tr.Start, tr.End)
	case tr.Corrupt && !tr.Lost:
		return auditErr("trace record %d: corrupt but not marked lost", i)
	case tr.Adversary && !tr.Lost:
		return auditErr("trace record %d: adversary-faulted but not marked lost", i)
	case tr.Adversary && !rp.adversarial:
		return auditErr("trace record %d: adversary-faulted transfer in a run without strategies", i)
	case tr.Adversary && rp.honest[tr.From]:
		return auditErr("trace record %d: honest node %d recorded as misbehaving", i, tr.From)
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
		return auditErr("trace record %d: %d->%d duration %v, bandwidth model requires %v",
			i, from, to, d, want)
	}
	// Liveness across the whole flight.
	if !rp.ix.aliveAt(from, tr.Start) {
		return auditErr("t=%v: dead node %d starts an upload", tr.Start, from)
	}
	if !rp.ix.aliveAt(to, tr.Start) {
		return auditErr("t=%v: node %d uploads to dead node %d", tr.Start, from, to)
	}
	if rp.ix.eventDuring(from, tr.Start, tr.End) || rp.ix.eventDuring(to, tr.Start, tr.End) {
		return auditErr("trace record %d: %d->%d survives a fault event mid-flight; the engine aborts those",
			i, from, to)
	}
	return nil
}

// applyEvents replays the fault-log events before time until
// (swarm.Replay.Apply): a wiped rejoin forgets when the node acquired
// its blocks, and same-time deliveries precede a departure, matching
// the engine's event order.
func (rp *replay) applyEvents(until float64) {
	log := rp.res.FaultLog
	for rp.logCursor < len(log) && log[rp.logCursor].Time < until {
		ev := log[rp.logCursor]
		rp.logCursor++
		if rp.pop.Apply(ev) {
			for b := range rp.arrivedAt[ev.Node] {
				rp.arrivedAt[ev.Node][b] = math.Inf(1)
			}
		}
		if ev.Time > rp.maxTime {
			rp.maxTime = ev.Time
		}
	}
}

// replayRecord applies trace record i to the replay state after its
// stateless checks passed: store-and-forward at upload start, the drop
// counters, and double delivery.
func (rp *replay) replayRecord(tr TransferRecord) error {
	from, to, b := int(tr.From), int(tr.To), int(tr.Block)
	rp.applyEvents(tr.End)
	// The sender must have acquired the block (and not lost it to a
	// wipe) by tr.Start.
	if rp.arrivedAt[from][b] > tr.Start {
		return auditErr("t=%v: node %d sends block %d it did not hold at upload start", tr.Start, from, b)
	}
	if tr.End > rp.maxTime {
		rp.maxTime = tr.End
	}
	if tr.Lost {
		switch {
		case tr.Adversary && tr.Corrupt:
			rp.advGarbage++
		case tr.Adversary:
			rp.advStalled++
		case tr.Corrupt:
			rp.corrupt++
		default:
			rp.lost++
		}
		if tr.Adversary && rp.honest[to] {
			rp.honestWasted++
		}
		return nil
	}
	if !rp.pop.Deliver(to, b, tr.End) {
		return auditErr("t=%v: node %d delivered block %d it already holds", tr.End, to, b)
	}
	rp.arrivedAt[to][b] = tr.End
	rp.delivered++
	if rp.adversarial && rp.honest[to] {
		rp.honestUseful++
	}
	return nil
}

// checkPorts checks the serial-upload and download-port disciplines:
// every sender in ascending node order, then every receiver. idx is
// one flat index of record numbers grouped by node with a counting
// sort — by sender, then rebuilt by receiver — so each group starts in
// trace order and sorts by Start into the same permutation every time.
func (rp *replay) checkPorts() error {
	trace, n := rp.res.Trace, rp.c.Nodes
	first := make([]int32, n+1) // group v is idx[first[v]:first[v+1]]
	idx := make([]int32, len(trace))
	groupBy := func(node func(tr *TransferRecord) int32) {
		clear(first)
		for i := range trace {
			first[node(&trace[i])+1]++
		}
		for v := 1; v <= n; v++ {
			first[v] += first[v-1]
		}
		for i := range trace {
			v := node(&trace[i])
			idx[first[v]] = int32(i)
			first[v]++
		}
		// first[v] now ends group v; shift so it starts it again.
		copy(first[1:], first[:n])
		first[0] = 0
	}
	group := func(v int) []int32 {
		g := idx[first[v]:first[v+1]]
		sort.Slice(g, func(x, y int) bool { return trace[g[x]].Start < trace[g[y]].Start })
		return g
	}

	// Serial upload port: each sender's transfers must not overlap.
	groupBy(func(tr *TransferRecord) int32 { return tr.From })
	for u := 0; u < n; u++ {
		g := group(u)
		for i := 1; i < len(g); i++ {
			if trace[g[i]].Start < trace[g[i-1]].End {
				return auditErr("node %d uploads concurrently at t=%v (serial upload port)", u, trace[g[i]].Start)
			}
		}
	}
	// Download ports: bounded concurrency, and a block at most once in
	// flight to the same receiver at a time.
	groupBy(func(tr *TransferRecord) int32 { return tr.To })
	var active []int32
	for v := 0; v < n; v++ {
		active = active[:0]
		for _, j := range group(v) {
			iv := &trace[j]
			keep := active[:0]
			for _, k := range active {
				if trace[k].End > iv.Start {
					keep = append(keep, k)
				}
			}
			active = keep
			for _, k := range active {
				if trace[k].Block == iv.Block {
					return auditErr("node %d has block %d twice in flight at t=%v", v, iv.Block, iv.Start)
				}
			}
			active = append(active, j)
			if rp.c.DownloadPorts != Unlimited && len(active) > rp.c.DownloadPorts {
				return auditErr("node %d exceeds %d download ports at t=%v", v, rp.c.DownloadPorts, iv.Start)
			}
		}
	}
	return nil
}

// checkTotals compares the replay's aggregates and final state with
// the recorded Result.
func (rp *replay) checkTotals() error {
	c, res, pop := rp.c, rp.res, rp.pop
	// The run must have finished under the engine's criterion: every
	// alive client — every alive *honest* client under an adversary
	// plan — holds the whole file. An open run instead ends on its
	// verdict, checked with the starvation identity.
	if rp.open {
		if err := pop.CheckOpen(res.Open); err != nil {
			return auditErr("%v", err)
		}
	} else {
		for v := 1; v < c.Nodes; v++ {
			if rp.adversarial && !rp.honest[v] {
				continue
			}
			if pop.Alive[v] && !pop.Have[v].Full() {
				return auditErr("replayed trace leaves alive client %d incomplete (%d/%d blocks)",
					v, pop.Have[v].Count(), c.Blocks)
			}
		}
	}
	if rp.delivered != res.Transfers {
		return auditErr("replay counts %d deliveries, result reports %d", rp.delivered, res.Transfers)
	}
	if rp.lost != res.Lost || rp.corrupt != res.Corrupt {
		return auditErr("replay counts %d lost + %d corrupt, result reports %d + %d",
			rp.lost, rp.corrupt, res.Lost, res.Corrupt)
	}
	if rp.advStalled != res.AdvStalled || rp.advGarbage != res.AdvCorrupt {
		return auditErr("replay counts %d stalled + %d garbage adversary drops, result reports %d + %d",
			rp.advStalled, rp.advGarbage, res.AdvStalled, res.AdvCorrupt)
	}
	if rp.adversarial && (rp.honestUseful != res.HonestUseful || rp.honestWasted != res.HonestWasted) {
		return auditErr("replay counts %d honest-useful / %d honest-wasted, result reports %d / %d",
			rp.honestUseful, rp.honestWasted, res.HonestUseful, res.HonestWasted)
	}
	if len(res.Trace) > 0 || len(res.FaultLog) > 0 {
		// An open run's clock can outlive its last logged event: the
		// final handled event may be an unlogged protocol timer, and
		// finish() stamps CompletionTime with the engine clock.
		if rp.open && res.CompletionTime < rp.maxTime {
			return auditErr("CompletionTime %v precedes the last recorded event (%v)",
				res.CompletionTime, rp.maxTime)
		}
		if !rp.open && res.CompletionTime != rp.maxTime {
			return auditErr("CompletionTime %v does not match the last recorded event (%v)",
				res.CompletionTime, rp.maxTime)
		}
	}
	if err := pop.Final("time", res.FinalHave, res.ClientCompletion, res.FinalAlive); err != nil {
		return auditErr("%v", err)
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
//   - accounting: delivery, loss, and corruption counts, every node's
//     completion time (the server's stays 0), the completion time, and
//     the final block and liveness state all match the recorded Result.
//
// A Result produced by Run with RecordTrace always passes; a doctored
// trace fails with a pinpointed ErrAudit. cfg.Fault and cfg.Adversary
// are ignored — the replay takes its adversity from res.FaultLog and
// res.Strategies, so auditing never consumes a (single-use) plan. For
// adversarial runs the drop causes are re-counted per kind and the
// honest-only completion criterion and honest stall accounting are
// re-derived from the trace.
//
// The audit is one sequential pass that rebuilds the population through
// swarm.Replay, and the error is the first violation in its scan order: fault-log sanity; then per trace record
// the stateless checks followed by store-and-forward and double
// delivery; then the port disciplines, senders in ascending node order
// before receivers; then the aggregate and final-state comparisons.
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
	rp := newReplay(c, res, honest)
	if err := rp.checkFaultLog(); err != nil {
		return err
	}
	rp.ix = buildEventIndex(res.FaultLog, rp.open, c.Nodes)
	prevEnd := math.Inf(-1)
	for i, tr := range res.Trace {
		if err := rp.checkRecord(i, tr, prevEnd); err != nil {
			return err
		}
		prevEnd = tr.End
		if err := rp.replayRecord(tr); err != nil {
			return err
		}
	}
	rp.applyEvents(math.Inf(1))

	if err := rp.checkPorts(); err != nil {
		return err
	}
	return rp.checkTotals()
}
