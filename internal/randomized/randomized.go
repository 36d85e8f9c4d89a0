// Package randomized implements the paper's randomized content
// distribution algorithm (Sections 2.4 and 3.2.3) as a
// simulate.Scheduler.
//
// Per tick, every node u that holds data attempts one upload:
//
//  1. Among u's overlay neighbors, find those that (a) still need a
//     block u holds, (b) have download capacity left this tick, and
//     (c) — under credit-limited barter — are within u's credit limit.
//     Pick one uniformly at random.
//  2. Upload one block v needs, chosen by the block-selection policy:
//     Random (uniform over the useful blocks) or Rarest-First (the
//     globally least-replicated useful block, the paper's
//     perfect-statistics variant; LocalRare estimates rarity from the
//     receiver's neighborhood instead).
//
// The paper's "handshake protocol" that resolves collisions between
// simultaneous proposals is modeled by the sharded intent/merge tick
// (DESIGN.md §14): peers are partitioned into shard.Slots fixed logical
// lanes, each round every lane resolves its members' pairing decisions
// concurrently against the tick-start view plus its own reservations,
// and a sequential merge commits the proposals in canonical lane order
// against the shared capacity, duplicate-block, and credit constraints.
// Conflicting proposals retry in the next round until a round produces
// no proposals, which converges to the same greedy maximal matching the
// historical sequential handshake produced. Because every random draw
// comes from a lane stream derived from the peer id alone, the schedule
// is byte-identical for any worker count (Options.ShardWorkers).
//
// The scheduler supports arbitrary overlay graphs and special-cases the
// complete graph so large swarms stay fast: candidate receivers are
// rejection-sampled from the incomplete-node list, and the exact
// fallback enumerates the uploader's tick-start audience through the
// incremental eligibility index (index.go) instead of subset-testing
// every incomplete client. The fallback skips receivers whose download
// cap the tick has already filled, and the coordinator compacts them
// out of the index lists it read between rounds, so late in a tick it
// stops visiting them (DESIGN.md §14.3).
package randomized

import (
	"fmt"
	"math/bits"

	"barterdist/internal/adversary"
	"barterdist/internal/bitset"
	"barterdist/internal/fault"
	"barterdist/internal/graph"
	"barterdist/internal/mechanism"
	"barterdist/internal/shard"
	"barterdist/internal/simulate"
	"barterdist/internal/swarm"
	"barterdist/internal/xrand"
)

// Policy selects which block to upload once a receiver is chosen.
type Policy int

const (
	// Random uploads a uniformly random useful block (paper default).
	Random Policy = iota + 1
	// RarestFirst uploads the useful block with the fewest holders
	// system-wide (the paper's perfect-statistics Rarest-First).
	RarestFirst
	// LocalRare estimates rarity over the receiver's neighborhood
	// instead of global statistics (the paper notes results are almost
	// identical; this variant lets us check that claim).
	LocalRare
)

// String implements fmt.Stringer for experiment output.
func (p Policy) String() string {
	switch p {
	case Random:
		return "random"
	case RarestFirst:
		return "rarest-first"
	case LocalRare:
		return "local-rare"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures the randomized scheduler.
type Options struct {
	// Graph is the overlay network. nil means the complete graph.
	Graph *graph.Graph
	// Policy is the block-selection policy; zero value means Random.
	Policy Policy
	// CreditLimit, when > 0, enforces credit-limited barter with the
	// given per-pair limit s (Section 3.2.3). Zero means cooperative.
	CreditLimit int
	// DownloadCap mirrors simulate.Config.DownloadCap and must match the
	// engine configuration: the scheduler uses it to model the handshake
	// that steers uploads away from saturated receivers. 0
	// (simulate.Unlimited) means no bound; a negative cap is rejected.
	DownloadCap int
	// Seed makes the run reproducible.
	Seed uint64
	// RewireEvery, when > 0, rebuilds the overlay as a fresh random
	// regular graph of the same degree every RewireEvery ticks — the
	// "change neighbors periodically" variant the paper flags as
	// promising future work at the end of Section 3.2.4. Requires a
	// regular Graph (all degrees equal).
	RewireEvery int
	// ShardWorkers is how many OS workers resolve the shard.Slots
	// logical pairing lanes concurrently inside each tick. 0 and 1 both
	// mean inline sequential resolution. The schedule is byte-identical
	// for every value — the logical decomposition and the per-lane
	// draw streams are fixed; workers only decide physical concurrency.
	ShardWorkers int
}

// lane is the per-shard slice of the scheduler: the members owned by
// one logical shard, their dedicated xrand stream, and the
// receiver-indexed reservation scratch the lane writes during a
// concurrent pairing round. Two invariants make the concurrent phase
// race-free: a lane only draws randomness from its own stream and only
// writes lane-owned state (reservations, intents, read lists, counters,
// its members' no-peer cache entries), and everything global it reads
// (ground-truth block sets, avail, the eligibility index, freq, the
// ledger, the guard) is mutated exclusively between rounds by
// beginTick, the merge and the index compaction after it.
type lane struct {
	rng     *xrand.Rand
	members []int32 // fixed ascending member ids (σ(v) = v mod shard.Slots)
	order   []int32 // per-tick Fisher–Yates shuffle of members
	pend    []int32 // uploaders to retry this round (staged by the merge)
	intents []intent
	// resStamp/resDown/resHead are receiver-indexed reservations, live
	// only when the stamp equals the scheduler's current round stamp:
	// resDown counts this lane's in-round download reservations for a
	// receiver, resHead heads the linked list (through intent.prev) of
	// this lane's in-round proposals to it.
	resStamp []int32
	resDown  []int32
	resHead  []int32
	// freqAdd/freqTouched carry the lane's in-round rarity deltas for
	// RarestFirst: committed transfers live in Scheduler.freq, proposals
	// made earlier in the same round by this lane add on top.
	freqAdd     []int32
	freqTouched []int32
	scratch     []int32 // neighbor shuffle buffer (general graphs)
	// read lists the blocks whose index list this round's exact passes
	// enumerated; the coordinator compacts those lists after the merge.
	// readStamp[b] == roundStamp marks b as listed.
	read      []int32
	readStamp []int32
	stats     PassStats
}

// intent is one lane-local upload proposal awaiting the merge.
type intent struct {
	u, v, b int32
	prev    int32 // previous intent index targeting the same v this round, -1
}

// reserve stages the proposal u -> v of block b (-1 for a triangular
// intent, which picks its block at emit time) and books one in-round
// download slot on v: it bumps the lane's reservation count for v under
// the round's stamp and threads the intent onto the lane's list of
// proposals to v.
func (ln *lane) reserve(u, v, b, stamp int32) {
	prev := int32(-1)
	if ln.resStamp[v] == stamp {
		prev = ln.resHead[v]
		ln.resDown[v]++
	} else {
		ln.resStamp[v] = stamp
		ln.resDown[v] = 1
	}
	ln.resHead[v] = int32(len(ln.intents))
	ln.intents = append(ln.intents, intent{u: u, v: v, b: b, prev: prev})
}

// Scheduler is the randomized algorithm. Create one per simulation run;
// it carries per-run state (RNG streams, credit ledger, rarity
// statistics, the eligibility index).
type Scheduler struct {
	opts Options
	// rng is the base stream: it only drives lane-independent draws
	// (overlay rewiring). All pairing draws come from the lane streams.
	rng    *xrand.Rand
	ledger *mechanism.Ledger // nil in cooperative mode
	// guard is the peer-scoring/quarantine table, created lazily when
	// the simulation reports an active adversary plan: each receiver
	// backs off exponentially from senders that stalled it or served it
	// garbage, bans them past a strike threshold, and paroles them
	// periodically. nil in adversary-free runs — zero overhead.
	guard *adversary.Guard

	n, k    int
	init    bool
	workers int

	freq []int // freq[b] = number of nodes holding block b (committed)
	// downUsed and incoming are epoch-stamped per-tick scratch: an entry
	// is live only when its stamp equals the current tick, so beginTick
	// never pays an O(n) zeroing pass — per-tick cost is proportional to
	// the receivers actually touched, not to the node count. Both are
	// written only by the sequential merge.
	downUsed      []int
	downStamp     []int32
	incoming      [][]int32
	incomingStamp []int32
	curTick       int32
	// touched lists the receivers committed at least one transfer this
	// tick; the next beginTick checks exactly these for completion when
	// maintaining the candidate set.
	touched []int32
	// committed buffers this tick's merged transfers so the next
	// beginTick can fold the actually-applied deliveries into the
	// eligibility index (the engine owns dst, so the scheduler keeps its
	// own copy; nil-length in graph mode, which has no index).
	committed []simulate.Transfer
	// candidates is the persistent membership set behind avail: alive,
	// incomplete clients, maintained incrementally (completions come
	// from touched, liveness from the fault-event stream) instead of an
	// O(n) per-tick predicate scan. TestCandidateSetMatchesScan pins it
	// against the from-scratch rebuild.
	candidates *bitset.Set
	// avail holds the complete-graph candidate receivers for the current
	// tick: incomplete clients with download capacity left. Saturated
	// nodes are swap-removed by the merge as the tick progresses so both
	// sampling and the exact fallback stay proportional to the remaining
	// candidates.
	avail         []int32
	availPos      []int32 // availPos[v] = index of v in avail, -1 if absent
	removedInTick int     // saturated receivers dropped this tick
	// availWords is the tick-start snapshot of the block sets of avail's
	// members (complete-graph mode only): row i, availWords[i·W :
	// (i+1)·W], holds avail[i]'s W = ⌈k/64⌉ block words, and
	// removeAvail moves rows as it moves avail entries. Block sets
	// change only when the engine applies a tick, so a row equals
	// st.Blocks(avail[i]) for the whole tick; the rejection sampler
	// rejects a drawn receiver that already holds all of the uploader's
	// blocks from its row alone, without touching the receiver's set.
	// Only the coordinator writes it (beginTick and the merge); lanes
	// only read it.
	availWords []uint64
	words      int // W: block words per availWords row
	// localPeers is the tick-start snapshot of avail used by the
	// LocalRare policy on the complete graph: rarity must be estimated
	// over every alive incomplete client, not over the shrinking avail
	// list, or the estimate would depend on which receivers happened to
	// saturate earlier in the same tick.
	localPeers []int32
	// index is the incremental missing-block/eligibility index
	// (complete-graph mode only; nil with an explicit overlay).
	index *eligIndex
	// compactStamp[b] == roundStamp marks index list b as compacted
	// after this round's merge, so lanes that read the same list cost
	// one compaction.
	compactStamp []int32
	// noPeerAtCount[u] caches that u found no interested peer while
	// holding noPeerAtCount[u] blocks; valid until u's holdings grow
	// (interest is monotone in the sender's block set). It is only set
	// when the failed scan saw no interested peer at all — capacity- or
	// credit-blocked peers do not populate the cache. Lanes write only
	// their own members' entries, so concurrent rounds stay race-free.
	noPeerAtCount []int

	lanes [shard.Slots]*lane
	// laneTask is the pre-bound round closure handed to shard.Run so the
	// steady-state tick allocates nothing; it reads curState/curRound.
	laneTask   func(sg int) error
	curState   *simulate.State
	curRound   int32
	roundStamp int32
}

var _ simulate.Scheduler = (*Scheduler)(nil)

// Validate checks the options without mutating them. A zero Policy is
// accepted (it defaults to Random).
func (o *Options) Validate() error {
	switch o.Policy {
	case 0, Random, RarestFirst, LocalRare:
	default:
		return fmt.Errorf("randomized: unknown policy %d", int(o.Policy))
	}
	if o.CreditLimit < 0 {
		return fmt.Errorf("randomized: negative credit limit %d", o.CreditLimit)
	}
	if o.DownloadCap < 0 {
		return fmt.Errorf("randomized: negative download cap %d", o.DownloadCap)
	}
	if o.ShardWorkers < 0 {
		return fmt.Errorf("randomized: negative shard workers %d", o.ShardWorkers)
	}
	if o.RewireEvery < 0 {
		return fmt.Errorf("randomized: negative rewire interval %d", o.RewireEvery)
	}
	if o.RewireEvery > 0 {
		if o.Graph == nil {
			return fmt.Errorf("randomized: rewiring requires an explicit overlay graph")
		}
		d := o.Graph.Degree(0)
		for v := 1; v < o.Graph.N(); v++ {
			if o.Graph.Degree(v) != d {
				return fmt.Errorf("randomized: rewiring requires a regular graph (degree mismatch at node %d)", v)
			}
		}
	}
	return nil
}

// New returns a randomized scheduler. The overlay graph, if given, must
// have as many vertices as the simulation has nodes — this is checked on
// the first tick.
func New(opts Options) (*Scheduler, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Policy == 0 {
		opts.Policy = Random
	}
	s := &Scheduler{
		opts:    opts,
		rng:     xrand.New(opts.Seed),
		workers: shard.Workers(opts.ShardWorkers),
	}
	if opts.CreditLimit > 0 {
		ledger, err := mechanism.NewLedger(opts.CreditLimit)
		if err != nil {
			return nil, err
		}
		s.ledger = ledger
	}
	return s, nil
}

// Ledger exposes the credit ledger (nil in cooperative mode) so tests
// and experiments can inspect peak balances.
func (s *Scheduler) Ledger() *mechanism.Ledger { return s.ledger }

// PassStats counts the complete-graph exact pass's work: how often it
// ran, how many eligibility-index entries it enumerated, and why
// qualifiedIndexed turned entries down. Entries the priority hash
// rejects before qualification count as visited only. Every count is
// kept per logical lane, so the totals are identical for any
// ShardWorkers.
type PassStats struct {
	Passes         int64 // exact passes run
	Visited        int64 // index list entries enumerated
	Skipped        int64 // visited entries skipped as saturated this tick
	RejectCap      int64 // receiver's download cap reached
	RejectCredit   int64 // uploader over its credit limit with the receiver
	RejectGuard    int64 // receiver quarantines the uploader
	RejectInFlight int64 // everything the uploader offers is already in flight
}

// PassStats sums the lanes' exact-pass counters. Counters are not
// checkpointed: a resumed run counts from its restore.
func (s *Scheduler) PassStats() PassStats {
	var sum PassStats
	for _, ln := range s.lanes {
		if ln != nil { // nil before the first tick
			sum.Add(ln.stats)
		}
	}
	return sum
}

// Add adds q's counts to p's.
func (p *PassStats) Add(q PassStats) {
	p.Passes += q.Passes
	p.Visited += q.Visited
	p.Skipped += q.Skipped
	p.RejectCap += q.RejectCap
	p.RejectCredit += q.RejectCredit
	p.RejectGuard += q.RejectGuard
	p.RejectInFlight += q.RejectInFlight
}

func (s *Scheduler) setup(st *simulate.State) error {
	s.n, s.k = st.N(), st.K()
	if g := s.opts.Graph; g != nil && g.N() != s.n {
		return fmt.Errorf("randomized: overlay has %d vertices but simulation has %d nodes", g.N(), s.n)
	}
	s.freq = make([]int, s.k)
	for b := 0; b < s.k; b++ {
		s.freq[b] = 1 // the server
	}
	s.downUsed = make([]int, s.n)
	s.downStamp = make([]int32, s.n)
	s.incoming = make([][]int32, s.n)
	s.incomingStamp = make([]int32, s.n)
	s.avail = make([]int32, 0, s.n)
	s.availPos = make([]int32, s.n)
	s.candidates = bitset.New(s.n)
	for v := 1; v < s.n; v++ {
		if st.Alive(v) && !st.Blocks(v).Full() {
			s.candidates.Add(v)
		}
	}
	if s.opts.Graph == nil {
		s.index = newEligIndex(s.n, s.k)
		s.words = len(st.Blocks(0).Words())
		s.availWords = make([]uint64, 0, s.n*s.words)
		s.compactStamp = make([]int32, s.k)
		s.candidates.Iter(func(v int) bool {
			s.index.addNode(st, v)
			return true
		})
		s.committed = s.committed[:0]
	}
	if s.opts.Policy == LocalRare && s.opts.Graph == nil {
		s.localPeers = make([]int32, 0, s.n)
	}
	s.noPeerAtCount = make([]int, s.n)
	for i := range s.noPeerAtCount {
		s.noPeerAtCount[i] = -1
	}
	streams := shard.Streams(s.opts.Seed)
	for sg := 0; sg < shard.Slots; sg++ {
		members := shard.Members(s.n, sg)
		ln := &lane{
			rng:       streams[sg],
			members:   members,
			order:     make([]int32, len(members)),
			resStamp:  make([]int32, s.n),
			resDown:   make([]int32, s.n),
			resHead:   make([]int32, s.n),
			freqAdd:   make([]int32, s.k),
			readStamp: make([]int32, s.k),
		}
		// Reservation stamps start at -1: the live round stamps are
		// always positive, so a fresh lane never reads a zero-value
		// entry as a live reservation.
		for i := range ln.resStamp {
			ln.resStamp[i] = -1
		}
		s.lanes[sg] = ln
	}
	s.laneTask = func(sg int) error {
		s.runLane(s.lanes[sg])
		return nil
	}
	if st.Adversarial() {
		guard, err := adversary.NewGuard(adversary.GuardOptions{})
		if err != nil {
			return err
		}
		s.guard = guard
	}
	s.init = true
	return nil
}

// Tick implements simulate.Scheduler: the sharded intent/merge tick.
// Rounds alternate a concurrent phase (every lane proposes transfers
// for its unmatched members) with a sequential canonical-order merge
// (lane 0's proposals in proposal order, then lane 1's, …) that commits
// or defers each proposal against the shared constraints. The first
// proposal of every round always commits — the phase validated it
// against exactly the state the merge starts from — so the loop
// terminates, and it stops as soon as a round proposes nothing.
func (s *Scheduler) Tick(t int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
	if !s.init {
		if err := s.setup(st); err != nil {
			return nil, err
		}
	}
	if s.opts.RewireEvery > 0 && t > 1 && (t-1)%s.opts.RewireEvery == 0 {
		if err := s.rewire(); err != nil {
			return nil, err
		}
	}
	s.beginTick(st)
	return s.pairRounds(st, dst)
}

// pairRounds runs the tick's propose/merge rounds after beginTick,
// compacting the index lists the round's exact passes read after each
// merge.
func (s *Scheduler) pairRounds(st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
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
		dst = s.merge(dst)
		if s.index != nil && s.removedInTick > 0 {
			// Move the receivers saturated so far out of the open
			// prefixes the round's passes read, so the next round's
			// passes stop visiting them. Each list is compacted once,
			// and one scan of it costs no more than the pass that read
			// it.
			for _, ln := range s.lanes {
				for _, b := range ln.read {
					if s.compactStamp[b] != s.roundStamp {
						s.compactStamp[b] = s.roundStamp
						s.index.compact(int(b), s.availPos)
					}
				}
			}
		}
	}
	s.curState = nil
	return dst, nil
}

// proposeRound runs one concurrent phase: every lane resolves its
// members' decisions for the round through laneTask, and the number of
// proposals the lanes staged is returned.
func (s *Scheduler) proposeRound(round int32) (int, error) {
	s.curRound = round
	s.roundStamp++
	if err := shard.Run(s.workers, s.laneTask); err != nil {
		return 0, err
	}
	proposals := 0
	for _, ln := range s.lanes {
		proposals += len(ln.intents)
	}
	return proposals, nil
}

// runLane resolves one lane's pairing decisions for the current round:
// round 0 visits the lane's members in this tick's shuffled order
// (screening out nodes that cannot upload), later rounds revisit
// exactly the members whose previous proposal the merge deferred.
func (s *Scheduler) runLane(ln *lane) {
	st := s.curState
	ln.intents = ln.intents[:0]
	for _, b := range ln.freqTouched {
		ln.freqAdd[b] = 0
	}
	ln.freqTouched = ln.freqTouched[:0]
	ln.read = ln.read[:0]
	if s.curRound == 0 {
		copy(ln.order, ln.members)
		shard.Shuffle32(ln.rng, ln.order)
		for _, uu := range ln.order {
			u := int(uu)
			if !st.Alive(u) {
				continue // crashed nodes neither offer nor receive
			}
			if st.Refuses(u) {
				continue // u's own strategy declines to upload this tick
			}
			c := st.CountOf(u)
			if c == 0 {
				continue // nothing to offer yet
			}
			if s.noPeerAtCount[u] == c {
				continue // no peer wanted anything at this holding level
			}
			s.attempt(ln, st, u)
		}
		return
	}
	for _, uu := range ln.pend {
		s.attempt(ln, st, int(uu))
	}
}

// attempt makes one pairing decision for uploader u and stages the
// resulting proposal (if any) for the merge.
func (s *Scheduler) attempt(ln *lane, st *simulate.State, u int) {
	v, sawInterest := s.pickReceiver(ln, st, u)
	if v < 0 {
		if !sawInterest {
			s.noPeerAtCount[u] = st.CountOf(u)
		}
		return
	}
	b := s.pickBlock(ln, st, u, v)
	if b < 0 {
		return // cannot happen if pickReceiver qualified v; defensive
	}
	ln.reserve(int32(u), int32(v), int32(b), s.roundStamp)
	if s.opts.Policy == RarestFirst {
		if ln.freqAdd[b] == 0 {
			ln.freqTouched = append(ln.freqTouched, int32(b))
		}
		ln.freqAdd[b]++
	}
}

// merge commits this round's proposals in canonical lane order,
// re-validating each against the shared per-tick constraints (download
// capacity, duplicate blocks in flight, credit). A proposal that lost
// its slot to an earlier-merged one is deferred: its uploader retries
// with fresh draws next round.
//
// The lane order rotates by (tick + round) mod Slots. A fixed order
// would hand the same lane first claim on every contended receiver slot
// forever — in a credit-limited endgame that can permanently starve a
// receiver whose low-lane suitors are credit-blocked while its
// credit-worthy neighbors sit in higher lanes. The rotation is a pure
// function of run history, so it costs nothing in determinism or
// worker-invariance, and every lane gets first claim infinitely often.
func (s *Scheduler) merge(dst []simulate.Transfer) []simulate.Transfer {
	for i := 0; i < shard.Slots; i++ {
		ln := s.mergeLane(i)
		ln.pend = ln.pend[:0]
		for i := range ln.intents {
			it := &ln.intents[i]
			v := int(it.v)
			if s.opts.DownloadCap != simulate.Unlimited && s.downUsedOf(v) >= s.opts.DownloadCap {
				ln.pend = append(ln.pend, it.u)
				continue
			}
			if s.blockInFlightGlobal(v, it.b) {
				ln.pend = append(ln.pend, it.u)
				continue
			}
			if s.ledger != nil && !s.ledger.CanSend(it.u, it.v) {
				ln.pend = append(ln.pend, it.u)
				continue
			}
			tr := simulate.Transfer{From: it.u, To: it.v, Block: it.b}
			dst = append(dst, tr)
			if s.index != nil {
				s.committed = append(s.committed, tr)
			}
			used := s.bumpDownUsed(v)
			s.addIncoming(v, it.b)
			s.freq[it.b]++
			if s.ledger != nil {
				s.ledger.Record(it.u, it.v)
			}
			if s.opts.DownloadCap != simulate.Unlimited && used >= s.opts.DownloadCap {
				s.removeAvail(v)
			}
		}
	}
	return dst
}

// mergeLane returns the i-th lane of this round's merge order, which
// rotates by (tick + round) mod Slots.
func (s *Scheduler) mergeLane(i int) *lane {
	return s.lanes[(int(s.curTick)+int(s.curRound)+i)%shard.Slots]
}

// beginTick folds the previous tick's outcomes into the incremental
// statistics and rebuilds the per-tick candidate structures.
//
// Fault awareness is fully incremental: losses reported by the engine
// undo the speculative freq increments made when the doomed transfers
// were scheduled, a crash subtracts exactly the victim's holdings from
// the rarity counts, and a rejoin adds them back (a wiped rejoiner
// contributes nothing — the engine already cleared its set, and its
// pre-wipe holdings were subtracted at crash time, which is why the
// delta form agrees with a from-scratch recount; TestIncrementalFreq*
// pins the equivalence against recomputeFreq). Fault events still
// flush the no-peer cache, which is keyed to the old population.
// Fault-free runs see empty event and loss lists, take no branch, and
// consume exactly the pre-fault RNG stream.
//
// The eligibility index gets the same treatment: last tick's committed
// transfers are folded in against ground truth (a delivery the engine
// dropped leaves the receiver still missing the block, so the
// conditional remove is a no-op), a crash withdraws the victim's
// missing-block entries, and a rejoin files the survivor's — or, when
// wiped, all k of them.
func (s *Scheduler) beginTick(st *simulate.State) {
	now := float64(st.Tick() + 1) // the tick about to be scheduled
	s.curTick = int32(st.Tick() + 1)
	if s.index != nil {
		for i := range s.committed {
			tr := &s.committed[i]
			if st.Has(int(tr.To), int(tr.Block)) {
				s.index.remove(int(tr.Block), int(tr.To))
			}
		}
		s.committed = s.committed[:0]
	}
	// Fold last tick's deliveries into the candidate set: only receivers
	// that were actually scheduled a transfer can have completed, so the
	// membership update costs O(active transfers), not O(n). Ground
	// truth (st.Blocks(v).Full()) already reflects the engine's applied
	// deliveries and drops.
	for _, v := range s.touched {
		if st.Blocks(int(v)).Full() {
			s.candidates.Remove(int(v))
		}
	}
	s.touched = s.touched[:0]
	for _, lt := range st.LostLastTick() {
		s.freq[lt.Block]--
		if s.guard != nil && (lt.Adversary || lt.Corrupt) {
			// The receiver scores the sender that stalled it or served
			// it garbage; network losses without verification failure
			// are not attributable to the sender and draw no strike.
			s.guard.Strike(int(lt.To), int(lt.From), now)
		}
		if s.ledger != nil && lt.Adversary {
			// Claw back the credit speculatively recorded at schedule
			// time: a block the sender's strategy withheld or garbled
			// earns nothing — otherwise a corrupter could farm barter
			// credit with garbage.
			s.ledger.Unrecord(lt.From, lt.To)
		}
	}
	if evs := st.FaultEvents(); len(evs) > 0 {
		for _, ev := range evs {
			switch ev.Kind {
			case fault.Crash, fault.Depart:
				// An open-system departure is a permanent crash as far as
				// rarity accounting goes: the leaver's holdings stop
				// counting toward replication.
				st.Blocks(int(ev.Node)).AccumulateCounts(s.freq, -1)
				s.candidates.Remove(int(ev.Node))
				if s.index != nil {
					s.index.removeNode(st, int(ev.Node))
				}
			case fault.Rejoin, fault.Arrive:
				// An open-system arrival is a wiped rejoin of a fresh id:
				// its block set is empty, so AccumulateCounts adds nothing
				// and the node files as an incomplete candidate.
				st.Blocks(int(ev.Node)).AccumulateCounts(s.freq, 1)
				// A wiped rejoiner is always incomplete; an intact one
				// may have completed before its crash.
				if !st.Blocks(int(ev.Node)).Full() {
					s.candidates.Add(int(ev.Node))
					if s.index != nil {
						s.index.addNode(st, int(ev.Node))
					}
				}
			}
		}
		for i := range s.noPeerAtCount {
			s.noPeerAtCount[i] = -1
		}
	}
	if s.index != nil {
		// Every candidate is back in avail below, so no list member is
		// saturated yet.
		s.index.reopen()
	}
	// Rebuild avail from the candidate set by word-level scan: ascending
	// node order (the determinism contract for the rejection sampler)
	// at O(n/64 + |avail|) instead of an O(n) predicate scan. availPos
	// entries of non-candidates are stale but unreachable — removeAvail
	// is only ever called for a node that was just handed a transfer,
	// which means it came out of avail this tick.
	s.avail = s.avail[:0]
	s.availWords = s.availWords[:0]
	s.removedInTick = 0
	s.candidates.Iter(func(v int) bool {
		s.availPos[v] = int32(len(s.avail))
		s.avail = append(s.avail, int32(v))
		if s.index != nil {
			s.availWords = append(s.availWords, st.Blocks(v).Words()...)
		}
		return true
	})
	if s.opts.Graph == nil && s.opts.Policy == LocalRare {
		// Snapshot before any mid-tick saturation removals.
		s.localPeers = append(s.localPeers[:0], s.avail...)
	}
}

// recomputeFreq rebuilds the global replication counts from the block
// sets of the currently alive nodes, one word-parallel
// AccumulateCounts per node. The hot path no longer calls it —
// beginTick maintains freq incrementally across crashes, rejoins, and
// in-flight losses — but it remains the oracle the incremental
// accounting is verified against in tests.
func (s *Scheduler) recomputeFreq(st *simulate.State) {
	for b := range s.freq {
		s.freq[b] = 0
	}
	for v := 0; v < s.n; v++ {
		if !st.Alive(v) {
			continue
		}
		st.Blocks(v).AccumulateCounts(s.freq, 1)
	}
}

// rewire replaces the overlay with a fresh random regular graph of the
// same degree and invalidates the no-peer cache (it is keyed to the old
// neighborhoods). Rewiring draws from the base stream, never the lane
// streams, so lane draw sequences stay independent of it.
func (s *Scheduler) rewire() error {
	g, err := graph.RandomRegular(s.opts.Graph.N(), s.opts.Graph.Degree(0), s.rng)
	if err != nil {
		return fmt.Errorf("randomized: rewire failed: %w", err)
	}
	s.opts.Graph = g
	for i := range s.noPeerAtCount {
		s.noPeerAtCount[i] = -1
	}
	return nil
}

// pickReceiver returns a uniformly random qualified receiver for u, or
// -1. sawInterest reports whether any peer was interested in u's content
// regardless of capacity or credit (used for the no-peer cache).
func (s *Scheduler) pickReceiver(ln *lane, st *simulate.State, u int) (int, bool) {
	if s.opts.Graph == nil {
		return s.pickReceiverComplete(ln, st, u)
	}
	nbrs := s.opts.Graph.Neighbors(u)
	if len(nbrs) == 0 {
		return -1, false
	}
	// Lazily shuffle the neighbor list and take the first qualified
	// entry: the first qualified element of a uniform permutation is
	// uniform over the qualified set.
	ln.scratch = append(ln.scratch[:0], nbrs...)
	sawInterest := false
	for i := range ln.scratch {
		j := i + ln.rng.Intn(len(ln.scratch)-i)
		ln.scratch[i], ln.scratch[j] = ln.scratch[j], ln.scratch[i]
		v := int(ln.scratch[i])
		interested, qualified := s.qualify(ln, st, u, v)
		sawInterest = sawInterest || interested
		if qualified {
			return v, true
		}
	}
	return -1, sawInterest
}

// removeAvail drops a saturated receiver from the complete-graph
// candidate list (swap-remove, O(1)), moving the last entry's
// block-word row into the freed row as it moves the entry.
func (s *Scheduler) removeAvail(v int) {
	pos := s.availPos[v]
	if pos < 0 {
		return
	}
	last := int32(len(s.avail) - 1)
	moved := s.avail[last]
	s.avail[pos] = moved
	s.availPos[moved] = pos
	s.avail = s.avail[:last]
	s.availPos[v] = -1
	s.removedInTick++
	if w := s.words; w > 0 {
		copy(s.availWords[int(pos)*w:int(pos+1)*w], s.availWords[int(last)*w:])
		s.availWords = s.availWords[:int(last)*w]
	}
}

// downUsedOf returns v's download budget committed this tick; entries
// from earlier ticks read as zero via the epoch stamp.
func (s *Scheduler) downUsedOf(v int) int {
	if s.downStamp[v] != s.curTick {
		return 0
	}
	return s.downUsed[v]
}

// bumpDownUsed increments v's committed download budget for this tick
// and returns the new value.
func (s *Scheduler) bumpDownUsed(v int) int {
	if s.downStamp[v] != s.curTick {
		s.downStamp[v] = s.curTick
		s.downUsed[v] = 0
	}
	s.downUsed[v]++
	return s.downUsed[v]
}

// laneRes returns this lane's in-round download reservations for v on
// top of the committed budget.
func (s *Scheduler) laneRes(ln *lane, v int) int {
	if ln.resStamp[v] != s.roundStamp {
		return 0
	}
	return int(ln.resDown[v])
}

// incomingOf returns the blocks already committed toward v this tick
// (nil when none).
func (s *Scheduler) incomingOf(v int) []int32 {
	if s.incomingStamp[v] != s.curTick {
		return nil
	}
	return s.incoming[v]
}

// addIncoming records one more block committed to v this tick; the
// first touch per tick resets v's stale list and registers v for the
// next tick's completion check.
func (s *Scheduler) addIncoming(v int, b int32) {
	if s.incomingStamp[v] != s.curTick {
		s.incomingStamp[v] = s.curTick
		s.incoming[v] = s.incoming[v][:0]
		s.touched = append(s.touched, int32(v))
	}
	s.incoming[v] = append(s.incoming[v], b)
}

// blockInFlightGlobal reports whether b is already committed toward v
// this tick.
func (s *Scheduler) blockInFlightGlobal(v int, b int32) bool {
	for _, fb := range s.incomingOf(v) {
		if fb == b {
			return true
		}
	}
	return false
}

// blockInFlight additionally checks this lane's in-round proposals.
func (s *Scheduler) blockInFlight(ln *lane, v int, b int32) bool {
	if s.blockInFlightGlobal(v, b) {
		return true
	}
	if ln.resStamp[v] == s.roundStamp {
		for i := ln.resHead[v]; i >= 0; i = ln.intents[i].prev {
			if ln.intents[i].b == b {
				return true
			}
		}
	}
	return false
}

// pickReceiverComplete is the complete-graph fast path: candidates are
// drawn from the per-tick available list (incomplete clients with
// download capacity left), since complete nodes and the server want no
// blocks. A miss streak in the rejection sampler falls through to the
// exact pass, which enumerates the uploader's audience through the
// eligibility index instead of subset-testing every candidate.
func (s *Scheduler) pickReceiverComplete(ln *lane, st *simulate.State, u int) (int, bool) {
	m := len(s.avail)
	if m == 0 {
		// An empty candidate list mid-tick only means every incomplete
		// client is saturated right now — that must not prime the
		// no-peer cache, so report interest whenever receivers were
		// removed this tick.
		return -1, s.removedInTick > 0
	}
	bu := st.Blocks(u)
	uw := bu.Words()
	full := bu.Full()
	if !full && !s.index.missesAny(uw) {
		// Nobody misses anything u holds — now or later this tick
		// (block sets only change at the tick boundary), so the result
		// may safely prime the no-peer cache.
		return -1, false
	}
	// Rejection-sample while the population is large. Capacity against
	// the committed budget is guaranteed by the avail list; the lane's
	// own reservations and credit are re-checked per draw.
	//
	// A draw whose snapshot row already holds every block u holds is
	// rejected from the row alone: qualify would find no interest in it
	// (and the row of u itself is such a row). Every other draw goes
	// through qualify as before, so the draws and the choice are those
	// of a sampler that qualifies every draw.
	const maxTries = 40
	if m > 64 {
		w := s.words
		avail, rows := s.avail[:m], s.availWords[:m*w]
		for try := 0; try < maxTries; try++ {
			i := ln.rng.Intn(m)
			row := rows[i*w:][:len(uw)]
			var missing uint64
			for j, x := range uw {
				missing |= x &^ row[j]
			}
			if missing == 0 {
				continue
			}
			v := int(avail[i])
			if _, qualified := s.qualify(ln, st, u, v); qualified {
				return v, true
			}
		}
	}
	if full {
		// A complete sender's audience is every candidate, so the index
		// offers no shortcut; scan the availability list with the cheap
		// interest test (an incomplete client always needs something
		// from a full sender unless in-flight transfers cover it).
		chosen := -1
		count := 0
		sawInterest := false
		for _, vv := range s.avail {
			v := int(vv)
			if v == u {
				continue
			}
			interested, qualified := s.qualify(ln, st, u, v)
			sawInterest = sawInterest || interested
			if !qualified {
				continue
			}
			count++
			if ln.rng.Intn(count) == 0 {
				chosen = v
			}
		}
		if s.removedInTick > 0 {
			sawInterest = true
		}
		return chosen, sawInterest || chosen >= 0
	}
	// Exact pass: choose the qualified audience member with the maximum
	// stateless priority, enumerated block by block through the index —
	// O(audience), not O(candidates). The priority hash is a bijection
	// of the node id for fixed (seed, uploader, tick, round), so the
	// winner is unique, uniform-ish over the qualified set, and —
	// crucially — independent of the member lists' internal order:
	// an index rebuilt from ground truth on resume enumerates the same
	// audience in a different order and still elects the same receiver
	// (duplicate appearances across block lists don't even need
	// deduplication, since max is idempotent). Interest is already
	// established (some list of u's blocks is non-empty), so the no-peer
	// cache is never primed from here.
	//
	// The pass reads only each list's open prefix and skips members the
	// merge has saturated this tick (availPos < 0). Both fail the
	// download-cap check in every lane, and since the winner is the max
	// over qualified members, leaving out losers cannot change it. Every
	// list the pass reads goes on the lane's read list, and after the
	// merge the coordinator moves saturated members behind its prefix,
	// so later rounds' passes stop visiting them.
	//
	// The pass walks only the lists of u's blocks that are non-empty: an
	// empty list has an empty open prefix, so leaving it out changes
	// neither the election nor the counters nor the read list.
	ln.stats.Passes++
	base := prioBase(s.opts.Seed, u, s.curTick, s.curRound)
	chosen := -1
	var best uint64
	for wi, word := range uw {
		for word &= s.index.nonEmpty[wi]; word != 0; word &= word - 1 {
			b := wi*64 + bits.TrailingZeros64(word)
			off := b * s.n
			cnt := int(s.index.open[b])
			skipped := 0
			for i := 0; i < cnt; i++ {
				v := int(s.index.members[off+i])
				if s.availPos[v] < 0 {
					skipped++
					continue
				}
				p := mix64(base ^ uint64(uint32(v)))
				if chosen >= 0 && p <= best {
					continue // cheap reject before the qualification checks
				}
				if v == chosen || !s.qualifiedIndexed(ln, st, u, v) {
					continue
				}
				chosen, best = v, p
			}
			ln.stats.Visited += int64(cnt)
			ln.stats.Skipped += int64(skipped)
			if cnt > 0 && ln.readStamp[b] != s.roundStamp {
				ln.readStamp[b] = s.roundStamp
				ln.read = append(ln.read, int32(b))
			}
		}
	}
	return chosen, true
}

// mix64 is the 64-bit avalanche finalizer (Murmur3/SplitMix style): a
// bijection on uint64 with full-width diffusion.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// prioBase derives the per-pass hash base for the exact pass's
// stateless priorities. It depends only on (seed, uploader, tick,
// round) — all pure functions of run history that survive a
// checkpoint/resume cycle — and never on RNG stream state, so the
// exact pass consumes no lane draws.
func prioBase(seed uint64, u int, tick, round int32) uint64 {
	h := mix64(seed ^ uint64(uint32(u))<<32 ^ uint64(uint32(tick)))
	return mix64(h ^ uint64(uint32(round)))
}

// qualifiedIndexed is the qualification check for audience members
// enumerated from the eligibility index: membership already proves the
// receiver is an alive incomplete client that misses one of the
// uploader's blocks, so only capacity, credit, quarantine, and the
// in-flight discount remain.
func (s *Scheduler) qualifiedIndexed(ln *lane, st *simulate.State, u, v int) bool {
	if s.opts.DownloadCap != simulate.Unlimited && s.downUsedOf(v)+s.laneRes(ln, v) >= s.opts.DownloadCap {
		ln.stats.RejectCap++
		return false
	}
	if s.ledger != nil && !s.ledger.CanSend(int32(u), int32(v)) {
		ln.stats.RejectCredit++
		return false
	}
	if s.guard != nil && s.guard.Blocked(v, u, float64(st.Tick()+1)) {
		ln.stats.RejectGuard++
		return false
	}
	if bound := s.bound(ln, v); bound != nil && !swarm.Offers(st.Blocks(u), st.Blocks(v), bound) {
		// Everything u offers v is already in flight or proposed to it.
		ln.stats.RejectInFlight++
		return false
	}
	return true
}

// qualify reports whether v is interested in u's content (needs a block
// u holds beyond what is already in flight or proposed to v) and
// whether v is fully qualified (interested, has download capacity
// beyond the committed budget and this lane's reservations, and is
// within credit).
func (s *Scheduler) qualify(ln *lane, st *simulate.State, u, v int) (interested, qualified bool) {
	if v == 0 {
		return false, false // the server needs nothing
	}
	if !st.Alive(v) {
		return false, false // dead receivers are re-sampled around
	}
	if !s.needsSomething(ln, st, u, v) {
		return false, false
	}
	if s.opts.DownloadCap != simulate.Unlimited && s.downUsedOf(v)+s.laneRes(ln, v) >= s.opts.DownloadCap {
		return true, false
	}
	if s.ledger != nil && !s.ledger.CanSend(int32(u), int32(v)) {
		return true, false
	}
	if s.guard != nil && s.guard.Blocked(v, u, float64(st.Tick()+1)) {
		// v has quarantined u after stalls or garbage: still interested
		// in the content, but not from this sender right now.
		return true, false
	}
	return true, true
}

// bound returns the test for blocks already committed toward v this
// tick or proposed to it by this lane this round, nil when there are
// none.
func (s *Scheduler) bound(ln *lane, v int) func(b int) bool {
	if s.incomingStamp[v] != s.curTick && ln.resStamp[v] != s.roundStamp {
		return nil
	}
	return func(b int) bool { return s.blockInFlight(ln, v, int32(b)) }
}

// needsSomething reports whether u holds a block v lacks beyond the
// blocks bound for v.
func (s *Scheduler) needsSomething(ln *lane, st *simulate.State, u, v int) bool {
	return swarm.Offers(st.Blocks(u), st.Blocks(v), s.bound(ln, v))
}

// pickBlock selects the block u uploads to v under the configured
// policy through the shared rule (swarm.PickBlock). Returns -1 if no
// block remains beyond the blocks bound for v. Rarest-First ranks by
// the committed counts plus this lane's in-round proposals.
func (s *Scheduler) pickBlock(ln *lane, st *simulate.State, u, v int) int {
	var rarity *swarm.Rarity
	switch s.opts.Policy {
	case RarestFirst:
		rarity = &swarm.Rarity{Count: s.freq, Add: ln.freqAdd}
	case LocalRare:
		rarity = &swarm.Rarity{Local: func(b int) int { return s.localFreq(st, v, b) }}
	}
	return swarm.PickBlock(ln.rng, st.Blocks(u), st.Blocks(v), s.bound(ln, v), rarity)
}

// localFreq is LocalRare's replication count of block b: holders among
// v's alive neighbors. On the complete graph the neighborhood estimate
// is taken over the tick-start snapshot of alive incomplete clients
// (localPeers) — counting over the live avail list would silently drop
// peers that saturated their download capacity earlier in the same
// tick, making the rarity estimate depend on intra-tick upload order.
// Complete nodes and the server hold every block, so leaving them out
// only shifts every count by the same constant and never changes which
// block is rarest.
func (s *Scheduler) localFreq(st *simulate.State, v, b int) int {
	count := 0
	if g := s.opts.Graph; g != nil {
		for _, w := range g.Neighbors(v) {
			if st.Alive(int(w)) && st.Has(int(w), b) {
				count++
			}
		}
		return count
	}
	for _, w := range s.localPeers {
		if st.Has(int(w), b) {
			count++
		}
	}
	return count
}

var _ fmt.Stringer = Policy(0)
