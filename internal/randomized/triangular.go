package randomized

import (
	"fmt"
	"slices"

	"barterdist/internal/graph"
	"barterdist/internal/mechanism"
	"barterdist/internal/shard"
	"barterdist/internal/simulate"
)

// TriangularOptions configures the triangular-barter randomized
// scheduler.
type TriangularOptions struct {
	// Graph is the overlay network (required; triangular barter is a
	// low-degree-overlay mechanism).
	Graph *graph.Graph
	// Policy is the block-selection policy; zero value means Random.
	Policy Policy
	// CreditLimit is the per-pair credit s for transfers that are not
	// settled by a cycle. Default 1.
	CreditLimit int
	// DownloadCap mirrors the engine configuration (0 = unlimited; a
	// negative cap is rejected).
	DownloadCap int
	// Seed makes the run reproducible.
	Seed uint64
	// ShardWorkers mirrors Options.ShardWorkers: how many OS workers
	// resolve the intent lanes concurrently. The schedule is
	// byte-identical for every value.
	ShardWorkers int
}

// TriangularScheduler implements the randomized algorithm under the
// triangular barter mechanism of Section 3.3 — the algorithm the paper
// leaves as future work.
//
// It is a settlement layer over a cooperative Scheduler, whose tick core
// it runs: the inner scheduler's setup, beginTick (the loss, fault and
// quarantine fold), lanes, per-tick scratch and block picker are used
// as they are. Each tick then runs in two phases:
//
//  1. Intent: every node with data picks one random interested neighbor
//     with spare download capacity, ignoring credit (as if a handshake
//     proposed the transfer). The intent phase runs as sharded rounds
//     exactly like Scheduler.Tick: lanes propose concurrently against
//     the committed capacity budget plus their own reservations, the
//     canonical merge re-checks capacity (the only constraint another
//     lane can consume mid-phase — credit, interest, and quarantine are
//     static until transfers are emitted) and defers losers to the next
//     round with fresh draws.
//  2. Settlement: intents a node can afford under its per-pair credit
//     are approved directly. The remaining intents form a functional
//     graph (one outgoing intent per node); every 2- or 3-cycle in that
//     graph is approved credit-free — all participants upload
//     simultaneously, so the exchange is self-enforcing exactly as in
//     the paper's description ("u uploads to v if v is simultaneously
//     uploading to w and w to u"). Unsettled intents are dropped and the
//     node stays silent for the tick. Both the approval and the ledger
//     charge for the emitted transfers go through mechanism.Settlement,
//     the verifier's own cycle rule.
//
// The resulting trace always passes mechanism.VerifyTriangular with the
// same credit limit (asserted in tests).
type TriangularScheduler struct {
	opts TriangularOptions
	// s is the inner cooperative scheduler. It has no credit limit, so
	// its ledger is nil and its beginTick never claws credit back. That
	// is deliberate: a dropped transfer may have settled as part of a 2-
	// or 3-cycle, in which case it consumed no credit and there is
	// nothing per transfer to claw back; the inner scheduler's
	// quarantine table is the triangular defense.
	s      *Scheduler
	ledger *mechanism.Ledger
	tick   mechanism.Settlement // settles each tick's emitted transfers

	intent   []int32 // intent[u] = chosen receiver, -1 if none
	approved []bool  // per-tick settlement scratch, reused across ticks
	// intenders lists the nodes that filed an intent this tick; the
	// settlement phases iterate it (sorted ascending, the canonical
	// settlement order) and the next tick resets exactly these
	// intent/approved entries.
	intenders []int32
}

var _ simulate.Scheduler = (*TriangularScheduler)(nil)

// Validate checks the options without mutating them. Zero values with
// documented defaults (Policy, CreditLimit) are accepted.
func (o *TriangularOptions) Validate() error {
	if o.Graph == nil {
		return fmt.Errorf("randomized: triangular barter requires an overlay graph")
	}
	inner := Options{Policy: o.Policy, CreditLimit: o.CreditLimit, DownloadCap: o.DownloadCap, ShardWorkers: o.ShardWorkers}
	return inner.Validate()
}

// NewTriangular returns a triangular-barter scheduler.
func NewTriangular(opts TriangularOptions) (*TriangularScheduler, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Policy == 0 {
		opts.Policy = Random
	}
	if opts.CreditLimit == 0 {
		opts.CreditLimit = 1
	}
	ledger, err := mechanism.NewLedger(opts.CreditLimit)
	if err != nil {
		return nil, err
	}
	s, err := New(Options{
		Graph: opts.Graph, Policy: opts.Policy, DownloadCap: opts.DownloadCap,
		Seed: opts.Seed, ShardWorkers: opts.ShardWorkers,
	})
	if err != nil {
		return nil, err
	}
	return &TriangularScheduler{opts: opts, s: s, ledger: ledger}, nil
}

// Ledger exposes the credit ledger for inspection.
func (ts *TriangularScheduler) Ledger() *mechanism.Ledger { return ts.ledger }

// setup runs the inner scheduler's setup and points its lanes at the
// intent phase.
func (ts *TriangularScheduler) setup(st *simulate.State) error {
	s := ts.s
	if err := s.setup(st); err != nil {
		return err
	}
	s.laneTask = func(sg int) error {
		ts.runIntentLane(s.lanes[sg])
		return nil
	}
	ts.intent = make([]int32, s.n)
	for i := range ts.intent {
		ts.intent[i] = -1
	}
	ts.approved = make([]bool, s.n)
	return nil
}

// runIntentLane resolves one lane's intent proposals for the current
// round: round 0 visits the lane's members in this tick's shuffled
// order, later rounds revisit exactly the members whose proposal the
// merge deferred on capacity.
func (ts *TriangularScheduler) runIntentLane(ln *lane) {
	s := ts.s
	st := s.curState
	ln.intents = ln.intents[:0]
	if s.curRound == 0 {
		copy(ln.order, ln.members)
		shard.Shuffle32(ln.rng, ln.order)
		for _, uu := range ln.order {
			u := int(uu)
			if !st.Alive(u) || st.CountOf(u) == 0 {
				continue
			}
			if st.Refuses(u) {
				continue
			}
			ts.proposeIntent(ln, st, u)
		}
		return
	}
	for _, uu := range ln.pend {
		ts.proposeIntent(ln, st, int(uu))
	}
}

// proposeIntent makes one intent decision for u and stages it with a
// lane-local capacity reservation.
func (ts *TriangularScheduler) proposeIntent(ln *lane, st *simulate.State, u int) {
	if v := ts.pickIntent(ln, st, u); v >= 0 {
		ln.reserve(int32(u), int32(v), -1, ts.s.roundStamp)
	}
}

// Tick implements simulate.Scheduler.
func (ts *TriangularScheduler) Tick(_ int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
	s := ts.s
	if !s.init {
		if err := ts.setup(st); err != nil {
			return nil, err
		}
	}
	s.beginTick(st)
	// Reset only last tick's intenders: everyone else's intent/approved
	// entries are already clear.
	for _, u := range ts.intenders {
		ts.intent[u] = -1
		ts.approved[u] = false
	}
	ts.intenders = ts.intenders[:0]

	// Phase 1: intents, as sharded rounds. The merge re-validates only
	// download capacity — the one shared budget lanes consume from each
	// other — and defers losers; the first proposal of every round was
	// validated against exactly the state the merge starts from, so each
	// round with proposals commits at least one and the loop terminates.
	s.curState = st
	for round := int32(0); ; round++ {
		proposals, err := s.proposeRound(round)
		if err != nil {
			s.curState = nil
			return nil, err
		}
		if proposals == 0 {
			break
		}
		for i := 0; i < shard.Slots; i++ {
			ln := s.mergeLane(i)
			ln.pend = ln.pend[:0]
			for i := range ln.intents {
				it := &ln.intents[i]
				v := int(it.v)
				if ts.opts.DownloadCap != simulate.Unlimited && s.downUsedOf(v) >= ts.opts.DownloadCap {
					ln.pend = append(ln.pend, it.u)
					continue
				}
				ts.intent[it.u] = it.v
				ts.intenders = append(ts.intenders, it.u)
				s.bumpDownUsed(v)
			}
		}
	}
	s.curState = nil

	// Phase 2a: approve what credit allows (server intents are exempt
	// and always approved). The intenders are visited in ascending node
	// order — the canonical settlement order.
	slices.Sort(ts.intenders)
	approved := ts.approved
	held := 0
	for _, ui := range ts.intenders {
		u := int(ui)
		if ts.ledger.CanSend(int32(u), ts.intent[u]) {
			approved[u] = true
		} else {
			held++
		}
	}

	// Phase 2b: approve the held intents that close a 2- or 3-cycle.
	// They emit first: an earlier uploader to a member's receiver could
	// otherwise take the only block the member offers, and the cycle's
	// other legs would be charged past the credit limit. No two of them
	// share a receiver, so each finds a block its receiver wanted at
	// intent time.
	ts.tick.Reset()
	if held > 0 {
		ts.settleHeld()
		for _, u := range ts.intenders {
			if approved[u] && !ts.ledger.CanSend(u, ts.intent[u]) {
				approved[u] = false // emitted now, not again below
				dst = ts.emit(dst, st, int(u))
			}
		}
	}

	// Emit the other approved intents in ascending uploader order
	// (intenders are already sorted).
	for _, u := range ts.intenders {
		if approved[u] {
			dst = ts.emit(dst, st, int(u))
		}
	}
	// Charge the ledger: transfers the tick settles in a 2- or 3-cycle
	// are credit-free, everything else consumes credit.
	ts.tick.Settle(func(u, v int32, c int) {
		for ; c > 0; c-- {
			ts.ledger.Record(u, v)
		}
	})
	return dst, nil
}

// settleHeld approves the held (credit-blocked) intents that close a
// cycle mechanism.Settlement cancels, the rule VerifyTriangular audits
// by. Each node files at most one intent and the server is never held
// or targeted, so the held intents form a functional graph of client
// edges whose cycles are disjoint; on such a graph Settlement cancels
// exactly the 2- and 3-cycles of held nodes. All held intents are
// approved, then each one Settlement charges is withdrawn. The tick's
// Settlement is left empty for the emitted transfers.
func (ts *TriangularScheduler) settleHeld() {
	approved := ts.approved
	for _, u := range ts.intenders {
		if !approved[u] {
			ts.tick.Add(u, ts.intent[u])
			approved[u] = true
		}
	}
	ts.tick.Settle(func(u, _ int32, _ int) { approved[u] = false })
	ts.tick.Reset()
}

// emit appends u's approved transfer to dst and the tick's settlement,
// unless everything useful is already in flight to its receiver. No
// lane holds a live reservation now, so pickBlock sees only the
// transfers already emitted this tick; its draws come from the
// uploader's lane stream, so every draw for u stays on one stream.
func (ts *TriangularScheduler) emit(dst []simulate.Transfer, st *simulate.State, u int) []simulate.Transfer {
	s := ts.s
	v := int(ts.intent[u])
	b := s.pickBlock(s.lanes[shard.Of(u)], st, u, v)
	if b < 0 {
		return dst
	}
	s.addIncoming(v, int32(b))
	s.freq[b]++
	ts.tick.Add(int32(u), int32(v))
	return append(dst, simulate.Transfer{From: int32(u), To: int32(v), Block: int32(b)})
}

// pickIntent returns a random interested neighbor with download
// capacity left (committed budget plus this lane's reservations), or
// -1. Credit-affordable receivers are preferred (they settle
// unconditionally); when every interested neighbor is credit-blocked, a
// random blocked one is proposed anyway in the hope that settlement
// finds a cycle through it — the extra liquidity triangular barter
// exists to provide.
func (ts *TriangularScheduler) pickIntent(ln *lane, st *simulate.State, u int) int {
	s := ts.s
	nbrs := ts.opts.Graph.Neighbors(u)
	if len(nbrs) == 0 {
		return -1
	}
	ln.scratch = append(ln.scratch[:0], nbrs...)
	blocked := -1
	for i := range ln.scratch {
		j := i + ln.rng.Intn(len(ln.scratch)-i)
		ln.scratch[i], ln.scratch[j] = ln.scratch[j], ln.scratch[i]
		v := int(ln.scratch[i])
		if v == 0 || !st.Alive(v) {
			continue
		}
		if ts.opts.DownloadCap != simulate.Unlimited && s.downUsedOf(v)+s.laneRes(ln, v) >= ts.opts.DownloadCap {
			continue
		}
		if !s.needsSomething(ln, st, u, v) {
			continue
		}
		if s.guard != nil && s.guard.Blocked(v, u, float64(st.Tick()+1)) {
			continue
		}
		if ts.ledger.CanSend(int32(u), int32(v)) {
			return v
		}
		if blocked < 0 {
			blocked = v
		}
	}
	return blocked
}
