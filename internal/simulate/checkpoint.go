package simulate

import (
	"fmt"

	"barterdist/internal/checkpoint"
	"barterdist/internal/swarm"
	"barterdist/internal/trace"
)

// CheckpointableScheduler is implemented by schedulers whose internal
// state (RNG streams, ledgers, frequency tables) can be persisted and
// restored. Schedulers without internal state may embed
// StatelessSchedulerState; the engine refuses to checkpoint a run whose
// scheduler implements neither.
type CheckpointableScheduler interface {
	Scheduler
	// SnapshotState appends the scheduler's full mutable state to enc.
	SnapshotState(enc *checkpoint.Encoder) error
	// RestoreState overwrites the scheduler's state from dec, given
	// the already-restored engine state (schedulers may rebuild
	// derived caches from it). It is called exactly once, before the
	// first resumed tick.
	RestoreState(dec *checkpoint.Decoder, st *State) error
}

// StatelessSchedulerState makes a scheduler checkpointable by declaring
// it has no mutable state: embed it in schedulers whose Tick is a pure
// function of (t, *State) — precomputed schedules, closed-form
// broadcasts — and snapshot/restore become no-ops. Embedding it in a
// scheduler that does mutate internal state silently breaks the
// resume-determinism contract; when in doubt, implement
// CheckpointableScheduler by hand.
type StatelessSchedulerState struct{}

// SnapshotState implements CheckpointableScheduler (nothing to save).
func (StatelessSchedulerState) SnapshotState(*checkpoint.Encoder) error { return nil }

// RestoreState implements CheckpointableScheduler (nothing to restore).
func (StatelessSchedulerState) RestoreState(*checkpoint.Decoder, *State) error { return nil }

// SnapshotState makes every SchedulerFunc checkpointable: an adapted
// function is expected to be pure in (t, *State). Closures over mutable
// state must implement CheckpointableScheduler as a named type instead.
func (f SchedulerFunc) SnapshotState(*checkpoint.Encoder) error { return nil }

// RestoreState implements CheckpointableScheduler (nothing to restore).
func (f SchedulerFunc) RestoreState(*checkpoint.Decoder, *State) error { return nil }

// Section names of a synchronous-engine snapshot; the population, event
// log, and plan positions live in the swarm core's sections.
const (
	secMeta      = "sim/meta"
	secState     = "sim/state"
	secTrace     = "sim/trace"
	secScheduler = "sim/scheduler"
)

// snapshot captures the runner's full state at the current tick
// boundary (immediately after step(t) returned done=false).
func (r *runner) snapshot() (*checkpoint.Snapshot, error) {
	cs, ok := r.sched.(CheckpointableScheduler)
	if !ok {
		return nil, fmt.Errorf("simulate: scheduler %T does not support checkpointing", r.sched)
	}
	snap := &checkpoint.Snapshot{}
	c, st, res, sw := r.c, r.st, r.res, r.sw
	snap.Put(secMeta, 64, func(e *checkpoint.Encoder) {
		e.Int(c.Nodes)
		e.Int(c.Blocks)
		e.Int(c.UploadCap)
		e.Int(c.ServerUploadCap)
		e.Int(c.DownloadCap)
		e.Bool(c.RecordTrace)
		e.Bool(sw.Fault != nil)
		e.Bool(sw.Adv != nil)
		e.Bool(sw.Open != nil)
	})
	sw.Snapshot(snap)
	snap.Put(secState, 256+8*c.Nodes, func(e *checkpoint.Encoder) {
		e.Int(st.tick)
		encodeLost(e, st.lost)
		swarm.EncodeEvents(e, r.pending)
		e.Ints(res.ClientCompletion)
		e.Int(res.TotalTransfers)
		e.Ints(res.UploadsPerTick)
	})
	if c.RecordTrace {
		snap.Put(secTrace, 64+16*res.Trace.Len(), res.Trace.Snapshot)
	}
	sche := checkpoint.NewEncoder(1024)
	if err := cs.SnapshotState(sche); err != nil {
		return nil, fmt.Errorf("simulate: scheduler snapshot: %w", err)
	}
	snap.Add(secScheduler, sche.Bytes())
	return snap, nil
}

// restore overwrites a freshly constructed runner (newRunner output,
// plans acquired, tick 0) with the snapshot's state. On success the
// runner is positioned exactly as it was when the snapshot was taken:
// the next step is st.tick+1.
func (r *runner) restore(snap *checkpoint.Snapshot) error {
	cs, ok := r.sched.(CheckpointableScheduler)
	if !ok {
		return fmt.Errorf("simulate: scheduler %T does not support checkpointing", r.sched)
	}
	c, st, res, sw := r.c, r.st, r.res, r.sw
	if err := snap.Get(secMeta, func(d *checkpoint.Decoder) error {
		nodes, blocks := d.Int(), d.Int()
		upCap, srvCap, downCap := d.Int(), d.Int(), d.Int()
		recTrace, hasFault, hasAdv, hasOpen := d.Bool(), d.Bool(), d.Bool(), d.Bool()
		if err := d.Err(); err != nil {
			return err
		}
		if nodes != c.Nodes || blocks != c.Blocks || upCap != c.UploadCap ||
			srvCap != c.ServerUploadCap || downCap != c.DownloadCap || recTrace != c.RecordTrace ||
			hasFault != (sw.Fault != nil) || hasAdv != (sw.Adv != nil) || hasOpen != (sw.Open != nil) {
			return fmt.Errorf("simulate: snapshot taken under a different config (snapshot n=%d k=%d U=%d/%d D=%d trace=%v fault=%v adv=%v open=%v)",
				nodes, blocks, upCap, srvCap, downCap, recTrace, hasFault, hasAdv, hasOpen)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := snap.Get(secState, func(d *checkpoint.Decoder) error {
		tick := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if tick < 1 {
			return checkpoint.Corruptf("simulate: tick %d out of range", tick)
		}
		lost, err := decodeLost(d, c.Nodes, c.Blocks)
		if err != nil {
			return err
		}
		pending, err := swarm.DecodeEvents(d, c.Nodes)
		if err != nil {
			return err
		}
		cc, total, upt := d.Ints(), d.Int(), d.Ints()
		if err := d.Err(); err != nil {
			return err
		}
		if len(cc) != c.Nodes || len(upt) != tick || total < 0 {
			return checkpoint.Corruptf("simulate: %d completion ticks, %d per-tick upload counts after %d ticks",
				len(cc), len(upt), tick)
		}
		for v, ct := range cc {
			if ct < 0 || ct > tick {
				return checkpoint.Corruptf("simulate: node %d completion tick %d out of range", v, ct)
			}
		}
		st.tick, st.lost, r.pending = tick, lost, pending
		copy(res.ClientCompletion, cc)
		res.TotalTransfers = total
		res.UploadsPerTick = append(res.UploadsPerTick[:0], upt...)
		return nil
	}); err != nil {
		return err
	}
	now := float64(st.tick)
	if err := sw.Restore(snap, now); err != nil {
		return err
	}
	if err := sw.CheckPending(r.pending, now); err != nil {
		return err
	}

	if c.RecordTrace {
		if err := snap.Get(secTrace, func(d *checkpoint.Decoder) error {
			log, err := trace.Restore(d)
			if err != nil {
				return err
			}
			if log.Kinded() != res.Trace.Kinded() {
				return checkpoint.Corruptf("simulate: trace kindedness mismatch")
			}
			if log.Ticks() != st.tick {
				return checkpoint.Corruptf("simulate: trace holds %d ticks, state at tick %d", log.Ticks(), st.tick)
			}
			res.Trace = log
			return nil
		}); err != nil {
			return err
		}
	}

	return snap.Get(secScheduler, func(d *checkpoint.Decoder) error {
		if err := cs.RestoreState(d, st); err != nil {
			return fmt.Errorf("simulate: scheduler restore: %w", err)
		}
		return nil
	})
}

func encodeLost(e *checkpoint.Encoder, lost []LostTransfer) {
	e.Int(len(lost))
	for _, lt := range lost {
		e.U32(uint32(lt.From))
		e.U32(uint32(lt.To))
		e.U32(uint32(lt.Block))
		e.Bool(lt.Corrupt)
		e.Bool(lt.Adversary)
	}
}

func decodeLost(d *checkpoint.Decoder, n, k int) ([]LostTransfer, error) {
	cnt := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if cnt < 0 || cnt > d.Remaining() {
		return nil, checkpoint.Corruptf("simulate: lost-transfer count %d invalid", cnt)
	}
	var lost []LostTransfer
	for i := 0; i < cnt; i++ {
		from, to, block := int32(d.U32()), int32(d.U32()), int32(d.U32())
		corrupt, adv := d.Bool(), d.Bool()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if int(from) >= n || int(to) >= n || from < 0 || to < 0 || block < 0 || int(block) >= k {
			return nil, checkpoint.Corruptf("simulate: lost transfer %d out of range", i)
		}
		lost = append(lost, LostTransfer{
			Transfer:  Transfer{From: from, To: to, Block: block},
			Corrupt:   corrupt,
			Adversary: adv,
		})
	}
	return lost, nil
}

// maybeCheckpoint writes a snapshot if the policy asks for one at the
// end of tick t. A write failure aborts the run: the user asked for
// durability, so failing to provide it must not pass silently.
func (r *runner) maybeCheckpoint(t int) error {
	ck := r.c.Checkpoint
	if !ck.Enabled() || t%ck.Every != 0 {
		return nil
	}
	snap, err := r.snapshot()
	if err != nil {
		return err
	}
	return snap.WriteFile(ck.Path)
}

// Resume reconstructs a run from a snapshot and continues it to
// completion. cfg and sched must be built exactly as for the original
// Run call (fresh single-use fault/adversary plans with the same
// options, same scheduler construction); the snapshot then rewinds all
// mutable state to the captured tick boundary. By the determinism
// contract the resumed run's result — including the full trace — is
// byte-identical to the uninterrupted run's.
//
//lint:novalidate audited forwarder — newRunner calls cfg.Validate
func Resume(cfg Config, sched Scheduler, snap *checkpoint.Snapshot) (*Result, error) {
	r, err := newRunner(cfg, sched)
	if err != nil {
		return nil, err
	}
	if r.c.Nodes == 1 {
		return nil, fmt.Errorf("simulate: nothing to resume for a single-node run")
	}
	if err := r.restore(snap); err != nil {
		return nil, err
	}
	return r.loop(r.st.tick + 1)
}
