package randomized

import (
	"fmt"

	"barterdist/internal/checkpoint"
	"barterdist/internal/shard"
	"barterdist/internal/simulate"
)

// Both randomized-family schedulers implement
// simulate.CheckpointableScheduler. What gets serialized is exactly the
// state that survives a tick boundary and cannot be rebuilt from the
// engine's restored State:
//
//   - the base RNG and the shard.Slots lane streams (the scheduler's
//     entire decision stream),
//   - the credit ledger and quarantine table (economic history),
//   - freq (rarity counts carry speculative increments for transfers
//     the engine will only report lost at the NEXT beginTick, so a
//     from-scratch recount would disagree),
//   - noPeerAtCount (whether a sender skips its scan decides whether
//     it draws from its lane stream).
//
// A lane-count sentinel (shard.Slots) precedes the lane streams: it
// doubles as a format version, so a checkpoint written under a
// different logical decomposition fails loudly instead of resuming a
// subtly different schedule.
//
// Per-tick member orders are NOT serialized: each tick copies the fixed
// member list and shuffles it fresh from the lane stream, so the order
// is a pure function of serialized state. Everything epoch-stamped
// (downUsed, incoming, reservations) is provably dead at a tick
// boundary — stale stamps read as zero — and the candidate set and
// eligibility index are rebuilt from the restored ground truth in
// setup, which agrees with the incremental maintenance at every
// boundary (TestCandidateSetMatchesScan and TestEligIndexMatchesScan
// pin that invariant). Last tick's committed-transfer buffer and
// touched list are NOT serialized either: the engine applies the
// tick's transfers before checkpointing, so the ground truth the
// restore rebuilds from already reflects them — the rebuild reproduces
// exactly what folding the buffers at the next beginTick would have.
// The one place a rebuilt index could diverge from an incrementally
// maintained one is the internal order of its member lists, which is
// why the exact pass selects by stateless max-priority instead of
// enumeration-order reservoir sampling (see pickReceiverComplete).

var (
	_ simulate.CheckpointableScheduler = (*Scheduler)(nil)
	_ simulate.CheckpointableScheduler = (*TriangularScheduler)(nil)
)

// snapshotLanes writes the lane-count sentinel and the lane streams.
func snapshotLanes(enc *checkpoint.Encoder, lanes *[shard.Slots]*lane) {
	enc.Int(shard.Slots)
	for _, ln := range lanes {
		ln.rng.Snapshot(enc)
	}
}

// restoreLanes validates the sentinel and restores the lane streams.
func restoreLanes(dec *checkpoint.Decoder, lanes *[shard.Slots]*lane) error {
	slots := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if slots != shard.Slots {
		return checkpoint.Corruptf("randomized: checkpoint has %d shard lanes, this build has %d", slots, shard.Slots)
	}
	for _, ln := range lanes {
		if err := ln.rng.RestoreState(dec); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotState implements simulate.CheckpointableScheduler.
func (s *Scheduler) SnapshotState(enc *checkpoint.Encoder) error {
	if s.opts.RewireEvery > 0 {
		// The overlay itself mutates mid-run; serializing graphs is out
		// of scope, so refuse loudly instead of resuming a wrong overlay.
		return fmt.Errorf("randomized: checkpointing is not supported with RewireEvery > 0")
	}
	if !s.init {
		return fmt.Errorf("randomized: cannot snapshot before the first tick")
	}
	s.rng.Snapshot(enc)
	snapshotLanes(enc, &s.lanes)
	enc.Bool(s.ledger != nil)
	if s.ledger != nil {
		s.ledger.Snapshot(enc)
	}
	enc.Bool(s.guard != nil)
	if s.guard != nil {
		s.guard.Snapshot(enc)
	}
	enc.Ints(s.freq)
	enc.Ints(s.noPeerAtCount)
	return nil
}

// RestoreState implements simulate.CheckpointableScheduler. st must be
// the engine's already-restored state; setup rebuilds the candidate set,
// the eligibility index, and the lanes from it before the serialized
// fields overwrite the rest.
func (s *Scheduler) RestoreState(dec *checkpoint.Decoder, st *simulate.State) error {
	if s.opts.RewireEvery > 0 {
		return fmt.Errorf("randomized: checkpointing is not supported with RewireEvery > 0")
	}
	if !s.init {
		if err := s.setup(st); err != nil {
			return err
		}
	}
	if err := s.rng.RestoreState(dec); err != nil {
		return err
	}
	if err := restoreLanes(dec, &s.lanes); err != nil {
		return err
	}
	if dec.Bool() != (s.ledger != nil) {
		if dec.Err() == nil {
			return checkpoint.Corruptf("randomized: ledger presence mismatch (different CreditLimit?)")
		}
	}
	if s.ledger != nil {
		if err := s.ledger.RestoreState(dec); err != nil {
			return err
		}
	}
	if dec.Bool() != (s.guard != nil) {
		if dec.Err() == nil {
			return checkpoint.Corruptf("randomized: guard presence mismatch (different adversary config?)")
		}
	}
	if s.guard != nil {
		if err := s.guard.RestoreState(dec); err != nil {
			return err
		}
	}
	freq := dec.Ints()
	noPeer := dec.Ints()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := restoreFreq(s.freq, freq, s.k); err != nil {
		return err
	}
	if len(noPeer) != s.n {
		return checkpoint.Corruptf("randomized: no-peer cache sized %d for %d nodes", len(noPeer), s.n)
	}
	for v, c := range noPeer {
		if c < -1 || c > s.k {
			return checkpoint.Corruptf("randomized: no-peer cache entry %d = %d out of range", v, c)
		}
	}
	copy(s.noPeerAtCount, noPeer)
	s.touched = s.touched[:0]
	s.committed = s.committed[:0]
	return nil
}

// SnapshotState implements simulate.CheckpointableScheduler. It writes
// the inner scheduler's base and lane streams, the triangular ledger,
// the inner quarantine table and rarity counts; the inner scheduler's
// nil ledger and its no-peer cache, which the intent phase never
// reads, are left out.
//
// intent/approved/intenders are NOT serialized: the next Tick resets
// exactly last tick's intenders before reading anything, so an empty
// table reproduces the reset's effect verbatim.
func (ts *TriangularScheduler) SnapshotState(enc *checkpoint.Encoder) error {
	s := ts.s
	if !s.init {
		return fmt.Errorf("randomized: cannot snapshot before the first tick")
	}
	s.rng.Snapshot(enc)
	snapshotLanes(enc, &s.lanes)
	ts.ledger.Snapshot(enc)
	enc.Bool(s.guard != nil)
	if s.guard != nil {
		s.guard.Snapshot(enc)
	}
	enc.Ints(s.freq)
	return nil
}

// RestoreState implements simulate.CheckpointableScheduler.
func (ts *TriangularScheduler) RestoreState(dec *checkpoint.Decoder, st *simulate.State) error {
	s := ts.s
	if !s.init {
		if err := ts.setup(st); err != nil {
			return err
		}
	}
	if err := s.rng.RestoreState(dec); err != nil {
		return err
	}
	if err := restoreLanes(dec, &s.lanes); err != nil {
		return err
	}
	if err := ts.ledger.RestoreState(dec); err != nil {
		return err
	}
	if dec.Bool() != (s.guard != nil) {
		if dec.Err() == nil {
			return checkpoint.Corruptf("randomized: guard presence mismatch (different adversary config?)")
		}
	}
	if s.guard != nil {
		if err := s.guard.RestoreState(dec); err != nil {
			return err
		}
	}
	freq := dec.Ints()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := restoreFreq(s.freq, freq, s.k); err != nil {
		return err
	}
	ts.intenders = ts.intenders[:0]
	for i := range ts.intent {
		ts.intent[i] = -1
		ts.approved[i] = false
	}
	return nil
}

// restoreFreq validates and installs serialized rarity counts.
func restoreFreq(dst, src []int, k int) error {
	if len(src) != k {
		return checkpoint.Corruptf("randomized: freq sized %d for %d blocks", len(src), k)
	}
	for b, f := range src {
		if f < 0 {
			return checkpoint.Corruptf("randomized: freq[%d] = %d negative", b, f)
		}
	}
	copy(dst, src)
	return nil
}
