package asim

import (
	"fmt"
	"math"
	"sort"

	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
)

// CheckpointableProtocol is implemented by protocols whose internal
// state (RNG streams, rarity tables, quarantine tables) can be
// persisted and restored. The engine refuses to checkpoint a run whose
// protocol does not implement it.
type CheckpointableProtocol interface {
	Protocol
	// SnapshotState appends the protocol's full mutable state to enc.
	SnapshotState(enc *checkpoint.Encoder) error
	// RestoreState overwrites the protocol's state from dec, given the
	// already-restored simulation state (protocols may rebuild derived
	// caches from it). It is called exactly once, before the first
	// resumed event.
	RestoreState(dec *checkpoint.Decoder, s *State) error
}

// Section names of an asynchronous-engine snapshot; the population,
// event log, and plan positions live in the swarm core's sections.
const (
	asecMeta     = "asim/meta"
	asecState    = "asim/state"
	asecEngine   = "asim/engine"
	asecProtocol = "asim/protocol"
)

// snapshot captures the engine's full state between two handled events.
// The pending queue is encoded in canonical (at, seq) order — heap
// layout must not leak into the bytes — and cancelled events are
// omitted: their references were already torn down, so a resumed run
// simply never sees them.
func (e *engine) snapshot() (*checkpoint.Snapshot, error) {
	cp, ok := e.proto.(CheckpointableProtocol)
	if !ok {
		return nil, fmt.Errorf("asim: protocol %T does not support checkpointing", e.proto)
	}
	snap := &checkpoint.Snapshot{}
	c, st, res, sw := e.cfg, e.st, e.res, e.sw
	snap.Put(asecMeta, 64+16*c.Nodes, func(me *checkpoint.Encoder) {
		me.Int(c.Nodes)
		me.Int(c.Blocks)
		me.F64s(c.UploadRate)
		me.F64s(c.DownloadRate)
		me.Int(c.DownloadPorts)
		me.F64(c.MaxTime)
		me.Bool(c.RecordTrace)
		me.Bool(sw.Fault != nil)
		me.Bool(sw.Adv != nil)
		me.Bool(sw.Open != nil)
	})
	sw.Snapshot(snap)
	snap.Put(asecState, 64+8*c.Nodes+32*len(res.Trace), func(se *checkpoint.Encoder) {
		se.F64(st.now)
		se.F64s(res.ClientCompletion)
		if !c.RecordTrace {
			return
		}
		se.Int(len(res.Trace))
		for _, tr := range res.Trace {
			se.F64(tr.Start)
			se.F64(tr.End)
			se.U32(uint32(tr.From))
			se.U32(uint32(tr.To))
			se.U32(uint32(tr.Block))
			se.Bool(tr.Lost)
			se.Bool(tr.Corrupt)
			se.Bool(tr.Adversary)
		}
	})

	pend := make([]*event, 0, len(e.queue))
	for _, ev := range e.queue {
		if !ev.cancelled {
			pend = append(pend, ev)
		}
	}
	sort.Slice(pend, func(i, j int) bool { return before(pend[i], pend[j]) })
	snap.Put(asecEngine, 64+40*len(pend), func(ee *checkpoint.Encoder) {
		ee.Int(e.seq)
		ee.Int(e.handled)
		ee.Bools(e.parked)
		ee.Int(len(pend))
		for _, ev := range pend {
			ee.F64(ev.at)
			ee.Int(ev.seq)
			ee.U8(uint8(ev.kind))
			switch ev.kind {
			case evComplete:
				ee.U32(uint32(ev.from))
				ee.U32(uint32(ev.to))
				ee.U32(uint32(ev.block))
				ee.F64(ev.start)
			case evTimer:
				ee.Int(ev.timer)
			case evCrash, evArrive:
				// The event time says it all; cross-checked against the
				// restored fault/arrival plan position on resume.
			case evRejoin, evAdvWake, evDepart:
				ee.U32(uint32(ev.node))
			}
		}
	})

	pe := checkpoint.NewEncoder(1024)
	if err := cp.SnapshotState(pe); err != nil {
		return nil, fmt.Errorf("asim: protocol snapshot: %w", err)
	}
	snap.Add(asecProtocol, pe.Bytes())
	return snap, nil
}

// restore overwrites a freshly constructed engine (newEngine output,
// nothing kicked) with the snapshot's state. The derived structures the
// snapshot omits — in-flight arrivals, upload ports, advWakePending — are
// rebuilt from the decoded event queue, and every rebuilt invariant is
// cross-checked so a corrupted snapshot is rejected rather than resumed
// into a diverging run.
func (e *engine) restore(snap *checkpoint.Snapshot) error {
	cp, ok := e.proto.(CheckpointableProtocol)
	if !ok {
		return fmt.Errorf("asim: protocol %T does not support checkpointing", e.proto)
	}
	c, st, res, sw := e.cfg, e.st, e.res, e.sw
	if err := snap.Get(asecMeta, func(md *checkpoint.Decoder) error {
		nodes, blocks := md.Int(), md.Int()
		upRate, downRate := md.F64s(), md.F64s()
		ports, maxTime := md.Int(), md.F64()
		recTrace, hasFault, hasAdv, hasOpen := md.Bool(), md.Bool(), md.Bool(), md.Bool()
		if err := md.Err(); err != nil {
			return err
		}
		if nodes != c.Nodes || blocks != c.Blocks || ports != c.DownloadPorts ||
			maxTime != c.MaxTime || recTrace != c.RecordTrace ||
			hasFault != (sw.Fault != nil) || hasAdv != (sw.Adv != nil) || hasOpen != (sw.Open != nil) ||
			!equalF64s(upRate, c.UploadRate) || !equalF64s(downRate, c.DownloadRate) {
			return fmt.Errorf("asim: snapshot taken under a different config (snapshot n=%d k=%d ports=%d maxTime=%v trace=%v fault=%v adv=%v open=%v)",
				nodes, blocks, ports, maxTime, recTrace, hasFault, hasAdv, hasOpen)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := snap.Get(asecState, func(d *checkpoint.Decoder) error {
		now := d.F64()
		cc := d.F64s()
		if err := d.Err(); err != nil {
			return err
		}
		if math.IsNaN(now) || math.IsInf(now, 0) || now < 0 {
			return checkpoint.Corruptf("asim: time %v out of range", now)
		}
		if len(cc) != c.Nodes {
			return checkpoint.Corruptf("asim: completion slice sized %d for %d nodes", len(cc), c.Nodes)
		}
		for v, t := range cc {
			if math.IsNaN(t) || t < 0 || t > now {
				return checkpoint.Corruptf("asim: node %d completion time %v out of range", v, t)
			}
		}
		st.now = now
		copy(res.ClientCompletion, cc)
		if !c.RecordTrace {
			return nil
		}
		nTrace := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if nTrace < 0 || nTrace > d.Remaining() {
			return checkpoint.Corruptf("asim: trace length %d invalid", nTrace)
		}
		res.Trace = res.Trace[:0]
		prevEnd := 0.0
		for i := 0; i < nTrace; i++ {
			var tr TransferRecord
			tr.Start, tr.End = d.F64(), d.F64()
			tr.From, tr.To, tr.Block = int32(d.U32()), int32(d.U32()), int32(d.U32())
			tr.Lost, tr.Corrupt, tr.Adversary = d.Bool(), d.Bool(), d.Bool()
			if err := d.Err(); err != nil {
				return err
			}
			if tr.From < 0 || int(tr.From) >= c.Nodes || tr.To < 0 || int(tr.To) >= c.Nodes ||
				tr.From == tr.To || tr.Block < 0 || int(tr.Block) >= c.Blocks {
				return checkpoint.Corruptf("asim: trace record %d out of range", i)
			}
			if math.IsNaN(tr.Start) || tr.Start < 0 || tr.End < tr.Start ||
				tr.End > now || tr.End < prevEnd {
				return checkpoint.Corruptf("asim: trace record %d has invalid times", i)
			}
			if (tr.Corrupt || tr.Adversary) && !tr.Lost {
				return checkpoint.Corruptf("asim: trace record %d corrupt/adversary but not lost", i)
			}
			prevEnd = tr.End
			res.Trace = append(res.Trace, tr)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := sw.Restore(snap, st.now); err != nil {
		return err
	}
	if err := snap.Get(asecEngine, e.restoreQueue); err != nil {
		return err
	}
	return snap.Get(asecProtocol, func(d *checkpoint.Decoder) error {
		if err := cp.RestoreState(d, st); err != nil {
			return fmt.Errorf("asim: protocol restore: %w", err)
		}
		return nil
	})
}

// restoreQueue decodes the pending events and rebuilds every structure
// derived from them: in-flight arrivals, upload ports, curUpload references,
// and advWakePending flags. It must run after the swarm sections are
// restored — event validation reads the population and plan positions.
func (e *engine) restoreQueue(ed *checkpoint.Decoder) error {
	c, st, sw := e.cfg, e.st, e.sw
	seq := ed.Int()
	handled := ed.Int()
	parked := ed.Bools()
	nPend := ed.Int()
	if err := ed.Err(); err != nil {
		return err
	}
	if seq < 0 || handled < 0 || len(parked) != c.Nodes {
		return checkpoint.Corruptf("asim: engine counters/park mask invalid")
	}
	if nPend < 0 || nPend > ed.Remaining() {
		return checkpoint.Corruptf("asim: pending event count %d invalid", nPend)
	}

	// Drop whatever newEngine scheduled (initial timers, first crash and
	// arrival): the snapshot's queue replaces it wholesale.
	e.queue = e.queue[:0]
	timerSeen := make([]bool, len(e.proto.Wakeups()))
	var population []fault.Event // queued rejoins and departures, in due order
	crashSeen, arriveSeen := false, false
	crashAt, arriveAt := 0.0, 0.0
	prevAt, prevSeq := math.Inf(-1), 0
	for i := 0; i < nPend; i++ {
		at := ed.F64()
		sq := ed.Int()
		kind := eventKind(ed.U8())
		if err := ed.Err(); err != nil {
			return err
		}
		if math.IsNaN(at) || math.IsInf(at, 0) || at < st.now {
			return checkpoint.Corruptf("asim: event %d at t=%v predates t=%v", i, at, st.now)
		}
		if sq < 1 || sq > seq {
			return checkpoint.Corruptf("asim: event %d seq %d outside [1, %d]", i, sq, seq)
		}
		if at < prevAt || (at == prevAt && sq <= prevSeq) {
			return checkpoint.Corruptf("asim: event %d not in canonical order", i)
		}
		prevAt, prevSeq = at, sq
		ev := e.newEvent()
		ev.at, ev.seq, ev.kind = at, sq, kind
		switch kind {
		case evComplete:
			from, to, block := int(ed.U32()), int(ed.U32()), int(ed.U32())
			start := ed.F64()
			if err := ed.Err(); err != nil {
				return err
			}
			if from < 0 || from >= c.Nodes || to < 0 || to >= c.Nodes || from == to ||
				block < 0 || block >= c.Blocks {
				return checkpoint.Corruptf("asim: transfer event %d out of range", i)
			}
			if !st.Alive(from) || !st.Alive(to) {
				return checkpoint.Corruptf("asim: transfer event %d touches a dead node", i)
			}
			if !st.Has(from, block) || st.Has(to, block) {
				return checkpoint.Corruptf("asim: transfer event %d inconsistent with ownership", i)
			}
			if e.curUpload[from] != nil {
				return checkpoint.Corruptf("asim: node %d has two uploads in flight", from)
			}
			if st.InFlightTo(to, block) {
				return checkpoint.Corruptf("asim: block %d twice in flight to node %d", block, to)
			}
			if c.DownloadPorts != Unlimited && st.InFlightCount(to) >= c.DownloadPorts {
				return checkpoint.Corruptf("asim: node %d exceeds its download ports", to)
			}
			rate := c.UploadRate[from]
			if down := c.DownloadRate[to] / math.Max(1, float64(c.DownloadPorts)); down < rate {
				rate = down
			}
			if math.IsNaN(start) || start < 0 || start > st.now || at != start+1/rate {
				return checkpoint.Corruptf("asim: transfer event %d duration inconsistent with rates", i)
			}
			ev.from, ev.to, ev.block, ev.start = from, to, block, start
			st.addInFlight(ev)
			e.curUpload[from] = ev
			e.uploading[from] = true
		case evTimer:
			tm := ed.Int()
			if err := ed.Err(); err != nil {
				return err
			}
			if tm < 0 || tm >= len(timerSeen) || timerSeen[tm] {
				return checkpoint.Corruptf("asim: timer event %d invalid or duplicated", tm)
			}
			timerSeen[tm] = true
			ev.timer = tm
		case evCrash:
			if sw.Fault == nil || crashSeen {
				return checkpoint.Corruptf("asim: unexpected crash event")
			}
			crashSeen, crashAt = true, at
		case evArrive:
			if sw.Open == nil || arriveSeen {
				return checkpoint.Corruptf("asim: unexpected arrival event")
			}
			arriveSeen, arriveAt = true, at
		case evRejoin, evDepart, evAdvWake:
			node := int(ed.U32())
			if err := ed.Err(); err != nil {
				return err
			}
			ev.node = node
			if kind != evAdvWake {
				fk := fault.Rejoin
				if kind == evDepart {
					fk = fault.Depart
				}
				population = append(population, fault.Event{Time: at, Node: int32(node), Kind: fk})
				break
			}
			if sw.Adv == nil || node < 0 || node >= c.Nodes || e.advWakePending[node] {
				return checkpoint.Corruptf("asim: throttle wake for node %d invalid", node)
			}
			e.advWakePending[node] = true
		default:
			return checkpoint.Corruptf("asim: unknown event kind %d", kind)
		}
		e.queue.push(ev)
	}

	for _, tm := range timerSeen {
		if !tm {
			return checkpoint.Corruptf("asim: a protocol timer has no pending event")
		}
	}
	if err := sw.CheckPending(population, st.now); err != nil {
		return err
	}
	if sw.Fault != nil {
		at, ok := sw.Fault.NextCrash()
		expect := ok && at <= c.MaxTime
		if expect != crashSeen || (expect && crashAt != at) {
			return checkpoint.Corruptf("asim: crash event inconsistent with fault plan position")
		}
	}
	if sw.Open != nil {
		// Exactly one arrival event is pending unless the pool is
		// exhausted or the stream was cut by MaxTime, and its time is
		// the restored plan's next draw.
		at, ok := sw.NextArrival()
		expect := ok && !sw.ArrivalsTruncated()
		if expect != arriveSeen || (expect && arriveAt != at) {
			return checkpoint.Corruptf("asim: arrival event inconsistent with arrival plan position")
		}
	}
	for v, p := range parked {
		if p && (e.uploading[v] || !st.Alive(v)) {
			return checkpoint.Corruptf("asim: node %d parked while uploading or dead", v)
		}
	}
	copy(e.parked, parked)
	e.seq = seq
	e.handled = handled
	return nil
}

func equalF64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maybeCheckpoint writes a snapshot if the policy asks for one at the
// current handled-event boundary. A write failure aborts the run: the
// user asked for durability, so failing to provide it must not pass
// silently.
func (e *engine) maybeCheckpoint() error {
	ck := e.cfg.Checkpoint
	if !ck.Enabled() || e.handled%ck.Every != 0 {
		return nil
	}
	snap, err := e.snapshot()
	if err != nil {
		return err
	}
	return snap.WriteFile(ck.Path)
}

// Resume reconstructs a run from a snapshot and continues it to
// completion. cfg and p must be built exactly as for the original Run
// call (fresh single-use fault/adversary plans with the same options,
// same protocol construction); the snapshot then rewinds all mutable
// state to the captured event boundary. By the determinism contract the
// resumed run's result — including the full trace — is byte-identical
// to the uninterrupted run's.
func Resume(cfg Config, p Protocol, snap *checkpoint.Snapshot) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes == 1 {
		return nil, fmt.Errorf("asim: nothing to resume for a single-node run")
	}
	c := cfg.withDefaults()
	eng, err := newEngine(c, p)
	if err != nil {
		return nil, err
	}
	if err := eng.restore(snap); err != nil {
		return nil, err
	}
	return eng.loop()
}
