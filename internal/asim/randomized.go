package asim

import (
	"fmt"

	"barterdist/internal/adversary"
	"barterdist/internal/checkpoint"
	"barterdist/internal/graph"
	"barterdist/internal/shard"
	"barterdist/internal/swarm"
	"barterdist/internal/xrand"
)

// AsyncRandomized is the asynchronous counterpart of the paper's
// randomized algorithm: whenever a node's upload port frees, it sends a
// random useful block to a random interested neighbor with a free
// download port — "each node simply using its links at its own pace",
// the asynchrony variant sketched in Section 2.3.4.
type AsyncRandomized struct {
	// Graph is the overlay; nil means the complete graph.
	Graph *graph.Graph
	// RarestFirst selects the globally rarest useful block instead of a
	// uniform one.
	RarestFirst bool
	// DownloadPorts mirrors Config.DownloadPorts for target filtering.
	DownloadPorts int

	// srng holds one independent draw stream per logical shard; every
	// draw made on behalf of uploader u comes from srng[shard.Of(u)],
	// the same stream-per-lane discipline the synchronous schedulers
	// follow. The event loop is sequential, so this buys no concurrency
	// here — it keeps the two engines' RNG derivation identical, which
	// is what lets one DESIGN.md section describe both.
	srng    [shard.Slots]*xrand.Rand
	counts  BlockCounts
	scratch []int32
	// guard is the per-receiver quarantine table, created lazily when
	// the simulation reports an adversary plan (nil and zero-overhead
	// otherwise). Receivers that caught a peer stalling or garbling
	// transfers refuse further uploads from it for an exponentially
	// growing cool-down, mirroring the sync schedulers' defense.
	guard *adversary.Guard
}

var (
	_ Protocol               = (*AsyncRandomized)(nil)
	_ FaultAware             = (*AsyncRandomized)(nil)
	_ AdversaryAware         = (*AsyncRandomized)(nil)
	_ CheckpointableProtocol = (*AsyncRandomized)(nil)
)

// NewAsyncRandomized returns the protocol with the given seed.
func NewAsyncRandomized(g *graph.Graph, rarest bool, ports int, seed uint64) *AsyncRandomized {
	return &AsyncRandomized{
		Graph:         g,
		RarestFirst:   rarest,
		DownloadPorts: ports,
		srng:          shard.Streams(seed),
	}
}

// Wakeups implements Protocol (no timers).
func (a *AsyncRandomized) Wakeups() []float64 { return nil }

// OnTimer implements Protocol.
func (a *AsyncRandomized) OnTimer(int, *State) {}

// Neighbors implements Protocol.
func (a *AsyncRandomized) Neighbors(v int) []int32 {
	if a.Graph == nil {
		return nil
	}
	return a.Graph.Neighbors(v)
}

// OnDeliver implements Protocol: maintain block replication counts for
// Rarest-First.
func (a *AsyncRandomized) OnDeliver(_, _, block int, s *State) {
	a.ensure(s)
	a.counts.Deliver(block)
}

func (a *AsyncRandomized) ensure(s *State) {
	a.counts.Size(s) // every snapshot carries the counts
	if a.guard == nil && s.Adversarial() {
		if g, err := adversary.NewGuard(adversary.GuardOptions{}); err == nil {
			a.guard = g
		}
	}
}

// OnCrash implements FaultAware: the victim's blocks no longer serve
// the swarm, so they leave the replication counts. Departures in an open
// run arrive here too.
func (a *AsyncRandomized) OnCrash(v int, s *State) {
	a.ensure(s)
	a.counts.Leave(v, s)
}

// OnRejoin implements FaultAware: the node's blocks count again — none
// after a wipe, and none for an open-system arrival.
func (a *AsyncRandomized) OnRejoin(v int, _ bool, s *State) {
	a.ensure(s)
	a.counts.Join(v, s)
}

// OnLoss implements FaultAware: the block never arrived, so the count
// OnDeliver would have added is simply never added — nothing to undo.
// A corrupt loss is evidence against the sender, so the receiver's
// quarantine table is struck even when the corruption came from the
// fault layer rather than a deliberate adversary — the receiver cannot
// tell the difference, and treating them alike keeps the defense
// strategy-free.
func (a *AsyncRandomized) OnLoss(from, to, _ int, corrupt bool, s *State) {
	if corrupt && a.guard != nil {
		a.guard.Strike(to, from, s.Now())
	}
}

// OnAdversaryDrop implements AdversaryAware: the sender's strategy
// stalled or garbled the transfer, so the receiver quarantines it.
// Rarity statistics need no undo — OnDeliver never counted the block.
func (a *AsyncRandomized) OnAdversaryDrop(from, to, _ int, _ bool, s *State) {
	a.ensure(s)
	if a.guard != nil {
		a.guard.Strike(to, from, s.Now())
	}
}

// NextUpload implements Protocol. All draws for uploader u come from
// u's shard stream.
func (a *AsyncRandomized) NextUpload(u int, s *State) (Upload, bool) {
	a.ensure(s)
	rng := a.srng[shard.Of(u)]
	v := a.pickTarget(rng, u, s)
	if v < 0 {
		return Upload{}, false
	}
	var rarity *swarm.Rarity
	if a.RarestFirst {
		rarity = a.counts.Rarity()
	}
	b := swarm.PickBlock(rng, s.Blocks(u), s.Blocks(v), s.Bound(v), rarity)
	if b < 0 {
		return Upload{}, false
	}
	return Upload{To: v, Block: b}, true
}

func (a *AsyncRandomized) pickTarget(rng *xrand.Rand, u int, s *State) int {
	if a.Graph != nil {
		a.scratch = append(a.scratch[:0], a.Graph.Neighbors(u)...)
	} else {
		a.scratch = a.scratch[:0]
		for v := 0; v < s.N(); v++ {
			if v != u {
				a.scratch = append(a.scratch, int32(v))
			}
		}
	}
	for i := range a.scratch {
		j := i + rng.Intn(len(a.scratch)-i)
		a.scratch[i], a.scratch[j] = a.scratch[j], a.scratch[i]
		v := int(a.scratch[i])
		if v == 0 || !s.Alive(v) {
			continue
		}
		if a.DownloadPorts != Unlimited && s.InFlightCount(v) >= a.DownloadPorts {
			continue
		}
		if a.guard != nil && a.guard.Blocked(v, u, s.Now()) {
			continue
		}
		if swarm.Offers(s.Blocks(u), s.Blocks(v), s.Bound(v)) {
			return v
		}
	}
	return -1
}

// SnapshotState implements CheckpointableProtocol: the shard streams,
// the rarity counts, and the quarantine table are the protocol's entire
// mutable state (scratch is dead between NextUpload calls). A
// lane-count sentinel precedes the streams as a format version, so a
// checkpoint from a build with a different logical decomposition fails
// loudly.
func (a *AsyncRandomized) SnapshotState(enc *checkpoint.Encoder) error {
	enc.Int(shard.Slots)
	for _, rng := range a.srng {
		rng.Snapshot(enc)
	}
	enc.Bool(a.counts.r.Count != nil)
	if a.counts.r.Count != nil {
		enc.Ints(a.counts.r.Count)
	}
	enc.Bool(a.guard != nil)
	if a.guard != nil {
		a.guard.Snapshot(enc)
	}
	return nil
}

// RestoreState implements CheckpointableProtocol.
func (a *AsyncRandomized) RestoreState(dec *checkpoint.Decoder, s *State) error {
	a.ensure(s)
	slots := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if slots != shard.Slots {
		return checkpoint.Corruptf("asim: snapshot has %d shard lanes, this build has %d", slots, shard.Slots)
	}
	for _, rng := range a.srng {
		if err := rng.RestoreState(dec); err != nil {
			return err
		}
	}
	if !dec.Bool() {
		if err := dec.Err(); err != nil {
			return err
		}
		// ensure ran before the first event of the original run too, so a
		// mid-run snapshot always carries the counts.
		return checkpoint.Corruptf("asim: snapshot lacks rarity counts")
	}
	freq := dec.Ints()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(freq) != s.K() {
		return checkpoint.Corruptf("asim: rarity counts sized %d for %d blocks", len(freq), s.K())
	}
	for b, f := range freq {
		if f < 0 {
			return checkpoint.Corruptf("asim: rarity count %d of block %d negative", f, b)
		}
	}
	copy(a.counts.r.Count, freq)
	if dec.Bool() != (a.guard != nil) {
		if dec.Err() == nil {
			return checkpoint.Corruptf("asim: guard presence mismatch (different adversary config?)")
		}
	}
	if a.guard != nil {
		return a.guard.RestoreState(dec)
	}
	return dec.Err()
}

// String describes the protocol for experiment output.
func (a *AsyncRandomized) String() string {
	policy := "random"
	if a.RarestFirst {
		policy = "rarest-first"
	}
	overlay := "complete"
	if a.Graph != nil {
		overlay = a.Graph.Name()
	}
	return fmt.Sprintf("async-randomized(%s,%s)", policy, overlay)
}
