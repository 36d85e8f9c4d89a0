package swarm

import (
	"math"

	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/trace"
)

// Section names of the swarm's part of an engine snapshot. Both engines
// write the same sections; only their clock state and result records
// live in engine-owned sections.
const (
	secPeers     = "swarm/peers"
	secLog       = "swarm/log"
	secFault     = "swarm/fault"
	secAdversary = "swarm/adversary"
	secOpen      = "swarm/open"
)

// Snapshot appends the swarm's sections: the population, the event log
// and transfer tally, and the positions of the plans the run holds.
func (c *Core) Snapshot(snap *checkpoint.Snapshot) {
	snap.Put(secPeers, 64+c.n*(c.k/8+16), c.Peers.snapshot)
	snap.Put(secLog, 64+16*len(c.Log), c.snapshotLog)
	if c.Fault != nil {
		snap.Put(secFault, 128, c.Fault.Snapshot)
	}
	if c.Adv != nil {
		snap.Put(secAdversary, 64+16*c.n, c.Adv.Snapshot)
	}
	if c.Open != nil {
		snap.Put(secOpen, 256+16*c.n, c.Open.snapshot)
	}
}

// Restore overwrites a freshly built Core (New's output, plans
// acquired) with a snapshot taken at time now. Every decoded quantity is
// range-checked and the counters are recounted from the restored masks,
// so a corrupted snapshot is rejected rather than resumed into a
// diverging run.
func (c *Core) Restore(snap *checkpoint.Snapshot, now float64) error {
	if err := snap.Get(secPeers, c.Peers.restore); err != nil {
		return err
	}
	if err := snap.Get(secLog, func(d *checkpoint.Decoder) error { return c.restoreLog(d, now) }); err != nil {
		return err
	}
	if c.Fault != nil {
		if err := snap.Get(secFault, c.Fault.RestoreState); err != nil {
			return err
		}
	}
	if c.Adv != nil {
		if err := snap.Get(secAdversary, c.Adv.RestoreState); err != nil {
			return err
		}
	}
	if c.Open != nil {
		return snap.Get(secOpen, func(d *checkpoint.Decoder) error { return c.restoreOpen(d, now) })
	}
	return nil
}

func (p *Peers) snapshot(e *checkpoint.Encoder) {
	e.Int(p.complete)
	for _, h := range p.have {
		e.Uint64s(h.Words())
	}
	e.Bool(p.alive != nil)
	if p.alive != nil {
		e.Bools(p.alive)
		e.Int(p.aliveClients)
		e.Int(p.pendingRejoin)
	}
	e.Bool(p.honest != nil)
	if p.honest != nil {
		e.Int(p.completeHonest)
		e.Int(p.aliveHonest)
		e.Int(p.pendingRejoinHonest)
	}
}

func (p *Peers) restore(d *checkpoint.Decoder) error {
	complete := d.Int()
	for v := range p.have {
		words := d.Uint64s()
		if err := d.Err(); err != nil {
			return err
		}
		if err := p.have[v].SetWords(words); err != nil {
			return checkpoint.Corruptf("swarm: node %d blocks: %v", v, err)
		}
	}
	if !p.have[0].Full() {
		return checkpoint.Corruptf("swarm: server no longer holds the full file")
	}
	if d.Bool() != (p.alive != nil) && d.Err() == nil {
		return checkpoint.Corruptf("swarm: liveness presence mismatch")
	}
	if p.alive != nil {
		alive := d.Bools()
		aliveClients, pendingRejoin := d.Int(), d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if len(alive) != p.n || !alive[0] {
			return checkpoint.Corruptf("swarm: invalid alive mask")
		}
		present := 0
		for _, a := range alive[1:] {
			if a {
				present++
			}
		}
		if aliveClients != present || pendingRejoin < 0 || pendingRejoin > p.n-1-present {
			return checkpoint.Corruptf("swarm: alive/rejoin counters inconsistent with mask")
		}
		copy(p.alive, alive)
		p.aliveClients, p.pendingRejoin = aliveClients, pendingRejoin
	}
	if d.Bool() != (p.honest != nil) && d.Err() == nil {
		return checkpoint.Corruptf("swarm: honesty presence mismatch")
	}
	if p.honest != nil {
		p.completeHonest, p.aliveHonest, p.pendingRejoinHonest = d.Int(), d.Int(), d.Int()
		if d.Err() == nil && (p.pendingRejoinHonest < 0 || p.pendingRejoinHonest > p.pendingRejoin) {
			return checkpoint.Corruptf("swarm: %d honest rejoins pending of %d", p.pendingRejoinHonest, p.pendingRejoin)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	p.complete = complete
	return p.checkCounters()
}

// checkCounters recounts completion from the restored ownership and
// liveness masks and rejects snapshots whose running counters disagree —
// the cheap end-to-end check that the sections belong together.
func (p *Peers) checkCounters() error {
	complete, completeHonest, aliveHonest := 0, 0, 0
	for v := 1; v < p.n; v++ {
		if !p.Alive(v) {
			continue
		}
		honest := p.Honest(v)
		if honest {
			aliveHonest++
		}
		if p.have[v].Full() {
			complete++
			if honest {
				completeHonest++
			}
		}
	}
	if p.complete != complete {
		return checkpoint.Corruptf("swarm: %d complete clients recorded, mask says %d", p.complete, complete)
	}
	if p.honest != nil && (p.completeHonest != completeHonest || p.aliveHonest != aliveHonest) {
		return checkpoint.Corruptf("swarm: honest progress counters inconsistent with masks")
	}
	return nil
}

func (c *Core) snapshotLog(e *checkpoint.Encoder) {
	t := &c.Tally
	e.Int(t.Useful)
	e.Ints(t.Drops[:])
	e.Int(t.HonestUseful)
	e.Int(t.HonestWasted)
	EncodeEvents(e, c.Log)
}

func (c *Core) restoreLog(d *checkpoint.Decoder, now float64) error {
	var t Tally
	t.Useful = d.Int()
	drops := d.Ints()
	t.HonestUseful, t.HonestWasted = d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if len(drops) != trace.NumKinds {
		return checkpoint.Corruptf("swarm: %d drop kinds, want %d", len(drops), trace.NumKinds)
	}
	copy(t.Drops[:], drops)
	bad := t.Useful < 0 || t.HonestUseful < 0 || t.HonestWasted < 0
	for _, n := range t.Drops {
		bad = bad || n < 0
	}
	if bad {
		return checkpoint.Corruptf("swarm: negative transfer tally")
	}
	log, err := DecodeEvents(d, c.n)
	if err != nil {
		return err
	}
	prev := 0.0
	for i, ev := range log {
		if math.IsNaN(ev.Time) || ev.Time < prev || ev.Time > now {
			return checkpoint.Corruptf("swarm: fault log entry %d out of order", i)
		}
		prev = ev.Time
		churn := ev.Kind == fault.Crash || ev.Kind == fault.Rejoin
		if churn && c.Fault == nil || !churn && c.Open == nil {
			return checkpoint.Corruptf("swarm: fault log entry %d (%v) impossible in this run", i, ev.Kind)
		}
	}
	c.Tally, c.Log = t, log
	return nil
}

// EncodeEvents appends a length-prefixed event list — the fault log, or
// an engine's queue of pending rejoins and departures.
func EncodeEvents(e *checkpoint.Encoder, evs []fault.Event) {
	e.Int(len(evs))
	for _, ev := range evs {
		e.F64(ev.Time)
		e.U32(uint32(ev.Node))
		e.U8(uint8(ev.Kind))
		e.Bool(ev.Wiped)
	}
}

// DecodeEvents reads an EncodeEvents list of an n-node run, rejecting
// events that name the server or an out-of-range node or carry an
// unknown kind. An empty list decodes as nil.
func DecodeEvents(d *checkpoint.Decoder, n int) ([]fault.Event, error) {
	cnt := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if cnt < 0 || cnt > d.Remaining() {
		return nil, checkpoint.Corruptf("swarm: event count %d invalid", cnt)
	}
	var evs []fault.Event
	for i := 0; i < cnt; i++ {
		ev := fault.Event{Time: d.F64(), Node: int32(d.U32()), Kind: fault.Kind(d.U8())}
		ev.Wiped = d.Bool()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if ev.Node < 1 || int(ev.Node) >= n {
			return nil, checkpoint.Corruptf("swarm: event %d node %d out of range", i, ev.Node)
		}
		switch ev.Kind {
		case fault.Crash, fault.Rejoin, fault.Arrive, fault.Depart:
		default:
			return nil, checkpoint.Corruptf("swarm: event %d kind %d invalid", i, ev.Kind)
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// CheckPending cross-checks an engine's queued population events,
// in due order, against the restored state. Each rejoin (fault runs)
// names a distinct absent client, each departure (open runs) a distinct
// present client whose departure was scheduled, none is due before now,
// and together they account for every pending rejoin and scheduled
// departure.
func (c *Core) CheckPending(pending []fault.Event, now float64) error {
	seen := make([]bool, c.n)
	rejoins, rejoinsHonest, departs := 0, 0, 0
	prev := now
	for i, ev := range pending {
		v := int(ev.Node)
		if v < 1 || v >= c.n || seen[v] || math.IsNaN(ev.Time) || ev.Time < prev {
			return checkpoint.Corruptf("swarm: pending event %d invalid", i)
		}
		seen[v], prev = true, ev.Time
		switch {
		case ev.Kind == fault.Rejoin && c.Fault != nil && !c.alive[v]:
			rejoins++
			if c.honest != nil && c.honest[v] {
				rejoinsHonest++
			}
		case ev.Kind == fault.Depart && c.Open != nil && c.alive[v] && c.Open.departScheduled[v]:
			departs++
		default:
			return checkpoint.Corruptf("swarm: pending %v event for node %d invalid", ev.Kind, v)
		}
	}
	if rejoins != c.pendingRejoin || rejoinsHonest != c.pendingRejoinHonest {
		return checkpoint.Corruptf("swarm: %d queued rejoins for %d pending", rejoins, c.pendingRejoin)
	}
	if c.Open != nil {
		want := 0
		for v := 1; v < c.n; v++ {
			if c.Open.departScheduled[v] && c.alive[v] {
				want++
			}
		}
		if departs != want {
			return checkpoint.Corruptf("swarm: %d queued departures for %d scheduled", departs, want)
		}
	}
	return nil
}

func (b *Book) snapshot(e *checkpoint.Encoder) {
	b.plan.Snapshot(e)
	b.wd.Snapshot(e)
	e.U32(uint32(b.nextID))
	e.F64s(b.arrivedAt)
	e.Int32s(b.exitAfter)
	e.Bools(b.departScheduled)
	e.Int(b.departed)
	e.Int(b.earlyExits)
	e.Int(b.peak)
	e.U32(uint32(b.oldest))
	e.Bool(b.truncated)
	e.Bool(b.occupancy != nil)
	if b.occupancy != nil {
		e.Int32s(b.occupancy)
	}
}

// restoreOpen rewinds the open-system book. The per-peer arrays must
// agree with the restored liveness mask, and a kept occupancy
// trajectory must hold one sample per elapsed tick — only the tick
// engine keeps one.
func (c *Core) restoreOpen(d *checkpoint.Decoder, now float64) error {
	b := c.Open
	if err := b.plan.RestoreState(d); err != nil {
		return err
	}
	if err := b.wd.RestoreState(d); err != nil {
		return err
	}
	nextID := int32(d.U32())
	arrivedAt, exitAfter, departScheduled := d.F64s(), d.Int32s(), d.Bools()
	departed, earlyExits, peak := d.Int(), d.Int(), d.Int()
	oldest := int32(d.U32())
	truncated, hasOcc := d.Bool(), d.Bool()
	var occ []int32
	if hasOcc {
		occ = d.Int32s()
	}
	if err := d.Err(); err != nil {
		return err
	}
	n := c.n
	if nextID < 1 || int(nextID) > n {
		return checkpoint.Corruptf("swarm: arrival nextID %d out of range", nextID)
	}
	if len(arrivedAt) != n || len(exitAfter) != n || len(departScheduled) != n {
		return checkpoint.Corruptf("swarm: arrival arrays sized %d/%d/%d for %d nodes",
			len(arrivedAt), len(exitAfter), len(departScheduled), n)
	}
	absent := 0
	for v := 1; v < n; v++ {
		if v >= int(nextID) {
			if c.alive[v] {
				return checkpoint.Corruptf("swarm: node %d present before its arrival", v)
			}
			continue
		}
		if math.IsNaN(arrivedAt[v]) || arrivedAt[v] < 0 || arrivedAt[v] > now {
			return checkpoint.Corruptf("swarm: node %d arrival time %v out of range", v, arrivedAt[v])
		}
		if exitAfter[v] < 0 || int(exitAfter[v]) >= c.k {
			return checkpoint.Corruptf("swarm: node %d exit threshold %d out of range", v, exitAfter[v])
		}
		if !c.alive[v] {
			absent++
		}
	}
	if departed != absent || earlyExits < 0 || earlyExits > departed || peak < 0 {
		return checkpoint.Corruptf("swarm: arrival counters %d/%d/%d invalid", departed, earlyExits, peak)
	}
	if oldest < 1 || oldest > nextID {
		return checkpoint.Corruptf("swarm: oldest pointer %d outside [1, %d]", oldest, nextID)
	}
	if hasOcc != (b.occupancy != nil) {
		return checkpoint.Corruptf("swarm: occupancy trajectory presence mismatch")
	}
	if hasOcc && float64(len(occ)) != now {
		return checkpoint.Corruptf("swarm: occupancy trajectory holds %d samples at tick %v", len(occ), now)
	}
	b.nextID = nextID
	copy(b.arrivedAt, arrivedAt)
	copy(b.exitAfter, exitAfter)
	copy(b.departScheduled, departScheduled)
	b.departed, b.earlyExits, b.peak = departed, earlyExits, peak
	b.oldest, b.truncated = oldest, truncated
	if hasOcc {
		b.occupancy = append(b.occupancy[:0], occ...)
	}
	return nil
}
