// Package asim is the event-driven, continuous-time companion to the
// synchronous simulator: the substrate for the paper's asynchrony
// discussion (Section 2.3.4, "Dealing with asynchrony") and for the
// BitTorrent study it reports as ongoing work in Section 4, which used
// "asynchronous simulations".
//
// Model: time is continuous. Each node has an upload rate and a download
// rate in blocks per unit time; a node uploads one block at a time
// (serial upload port) and may receive up to DownloadPorts blocks
// concurrently. Following the paper's tail-link bandwidth model, a
// transfer from u to v proceeds at min(upRate(u), downRate(v)/active(v)),
// approximated here by reserving one download port at the receiver and
// using min(upRate(u), downRate(v)/DownloadPorts) — each port carries an
// equal share. With all rates 1 and one port, durations are 1 and the
// model coincides with the synchronous simulator's tick.
//
// A Protocol is sender-driven: whenever a node's upload port is free the
// engine asks it for the next (receiver, block) pair. The engine tracks
// why a node went idle — nothing to offer vs. all targets busy — and
// wakes it on exactly the events that can change that answer, so runs
// stay near O(events·degree).
//
// # Fault injection
//
// Config.Fault attaches a fault.Plan: crash arrivals become engine
// events, a crash aborts every transfer in flight to or from the victim
// (the sender's upload port and the receiver's download port are both
// restored, and the affected peers are re-woken), and each completing
// transfer may be lost or corrupted at delivery time. Protocols observe
// liveness through State.Alive and, if they implement FaultAware,
// receive OnCrash/OnRejoin/OnLoss callbacks. With a nil Plan the engine
// is byte-identical to the fault-free implementation.
//
// # Adversarial behavior
//
// Config.Adversary attaches an adversary.Plan. Refusals happen at
// upload start: a node whose strategy refuses (free-rider, completed
// defector, throttler in a closed window) is parked without polling
// the protocol — a node knows its own strategy — and a throttler is
// re-woken when its window reopens. In-flight misbehavior happens at
// delivery: a false-advertiser's transfer stalls and a corrupter's
// fails block verification, in both cases wasting the receiver's
// download port for the transfer's duration. Protocols observe the
// drops through AdversaryAware; completion switches to the honest-only
// criterion. With a nil Plan the engine is byte-identical to the
// compliant implementation.
package asim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/bitset"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/swarm"
	"barterdist/internal/trace"
)

// Unlimited download ports.
const Unlimited = 0

// Config describes an asynchronous simulation instance.
type Config struct {
	// Nodes is the total node count (node 0 = server, holds all blocks).
	Nodes int
	// Blocks is the file size in blocks.
	Blocks int
	// UploadRate[v] is node v's upload bandwidth in blocks per unit
	// time. nil means rate 1 everywhere.
	UploadRate []float64
	// DownloadRate[v] is node v's download bandwidth. nil means rate
	// equal to the upload rate ("tail links", D = U).
	DownloadRate []float64
	// DownloadPorts bounds concurrent receives per node (Unlimited = no
	// bound; each concurrent receive still shares DownloadRate).
	DownloadPorts int
	// ShardWorkers is accepted for configuration symmetry with the
	// synchronous engine (core.Config.ShardWorkers) and validated, but
	// does not affect the asynchronous engine: its event loop is
	// inherently sequential — one upload decision per event — so there
	// is no intra-run phase to parallelize. Protocols still draw from
	// per-shard streams (see AsyncRandomized), keeping the RNG
	// derivation identical across both engines.
	//
	// Deprecated: the field does nothing; it remains only so existing
	// callers compile.
	ShardWorkers int
	// AuditWorkers is ignored: RunAudit is one sequential pass.
	//
	// Deprecated: the field remains only so existing callers compile.
	AuditWorkers int
	// MaxTime aborts runaway protocols. 0 selects a generous default.
	MaxTime float64
	// RecordTrace keeps every transfer (delivered, lost, or corrupted)
	// in the result so RunAudit can replay the run. Costs memory.
	RecordTrace bool
	// Fault attaches a fault-injection plan (crashes, rejoins, transfer
	// loss). nil runs the reliable engine unchanged. A Plan is
	// single-use: build one per run.
	Fault *fault.Plan
	// Adversary attaches a behavior-injection plan (free-riders,
	// throttlers, false-advertisers, corrupters, defectors). nil runs
	// the compliant engine unchanged. Like Fault, a Plan is single-use
	// and composes with it: the adversary rules on each delivery first.
	Adversary *adversary.Plan
	// Arrivals attaches an open-system plan (Poisson peer arrivals,
	// departures at completion or selfish early exit, seed policy).
	// Nodes then becomes the capacity — an upper bound on cumulative
	// arrivals — and the run ends with a stability verdict in
	// Result.Open instead of a closed-batch completion. nil runs the
	// closed engine unchanged. Single-use, and mutually exclusive with
	// Fault and Adversary for now.
	Arrivals *arrival.Plan
	// Checkpoint enables periodic crash-safe snapshots: every
	// Checkpoint.Every handled events the full engine state is written
	// atomically to Checkpoint.Path. Resume continues such a run with a
	// byte-identical remainder. nil disables checkpointing. Requires the
	// protocol to implement CheckpointableProtocol.
	Checkpoint *checkpoint.Policy
}

// Validate checks the raw configuration without mutating it. nil rate
// slices are valid — withDefaults fills them with all-ones (which
// trivially pass the per-entry checks).
func (c *Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("asim: Nodes = %d, need >= 1", c.Nodes)
	}
	if c.Blocks < 1 {
		return fmt.Errorf("asim: Blocks = %d, need >= 1", c.Blocks)
	}
	if c.UploadRate != nil {
		if len(c.UploadRate) != c.Nodes {
			return fmt.Errorf("asim: UploadRate has %d entries for %d nodes", len(c.UploadRate), c.Nodes)
		}
		for v, r := range c.UploadRate {
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("asim: UploadRate[%d] = %v must be positive and finite", v, r)
			}
		}
	}
	if c.DownloadRate != nil {
		if len(c.DownloadRate) != c.Nodes {
			return fmt.Errorf("asim: DownloadRate has %d entries for %d nodes", len(c.DownloadRate), c.Nodes)
		}
		for v, r := range c.DownloadRate {
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("asim: DownloadRate[%d] = %v must be positive and finite", v, r)
			}
		}
	}
	if c.DownloadPorts < 0 {
		return fmt.Errorf("asim: DownloadPorts = %d, need >= 0", c.DownloadPorts)
	}
	if c.ShardWorkers < 0 {
		return fmt.Errorf("asim: ShardWorkers = %d, need >= 0", c.ShardWorkers)
	}
	if c.MaxTime < 0 || math.IsNaN(c.MaxTime) || math.IsInf(c.MaxTime, 0) {
		return fmt.Errorf("asim: MaxTime = %v must be finite and >= 0", c.MaxTime)
	}
	if bad := swarm.PlanConflicts(c.Nodes, c.Fault, c.Adversary, c.Arrivals); bad != nil {
		return fmt.Errorf("asim: %s", bad[0])
	}
	if err := c.Checkpoint.Validate(); err != nil {
		return fmt.Errorf("asim: %w", err)
	}
	return nil
}

// withDefaults returns a copy with zero fields replaced by the
// documented defaults. The configuration must already be valid.
func (c Config) withDefaults() Config {
	if c.UploadRate == nil {
		c.UploadRate = make([]float64, c.Nodes)
		for i := range c.UploadRate {
			c.UploadRate[i] = 1
		}
	}
	if c.DownloadRate == nil {
		c.DownloadRate = append([]float64(nil), c.UploadRate...)
	}
	if c.MaxTime == 0 {
		c.MaxTime = 100 * float64(c.Blocks+c.Nodes)
	}
	return c
}

// State exposes read-only ownership and progress to protocols: the
// shared swarm view plus the engine's clock and in-flight transfers.
type State struct {
	*swarm.Peers
	// arriving[v] holds the transfers in flight to v, in no particular
	// order; its length is the number of v's busy download ports.
	arriving [][]*event
	// inBits has one bit per (node, block) in flight: node v's words
	// are inBits[v*words : (v+1)*words].
	inBits []uint64
	words  int
	now    float64
}

// Now returns the current simulation time.
func (s *State) Now() float64 { return s.now }

// InFlightTo reports whether block b is currently being received by v.
func (s *State) InFlightTo(v, b int) bool {
	return s.inBits[v*s.words+b>>6]&(1<<(b&63)) != 0
}

// InFlightCount returns the number of blocks currently arriving at v.
func (s *State) InFlightCount(v int) int { return len(s.arriving[v]) }

// Bound returns the test swarm.PickBlock and swarm.Offers take for the
// blocks already arriving at v, nil when none is.
func (s *State) Bound(v int) func(b int) bool {
	if len(s.arriving[v]) == 0 {
		return nil
	}
	w := s.inBits[v*s.words : (v+1)*s.words]
	return func(b int) bool { return w[b>>6]&(1<<(b&63)) != 0 }
}

// addInFlight records transfer ev as arriving at ev.to.
func (s *State) addInFlight(ev *event) {
	s.arriving[ev.to] = append(s.arriving[ev.to], ev)
	s.inBits[ev.to*s.words+ev.block>>6] |= 1 << (ev.block & 63)
}

// removeInFlight drops transfer ev, which must be arriving, from
// ev.to's arrivals.
func (s *State) removeInFlight(ev *event) {
	in := s.arriving[ev.to]
	i, last := 0, len(in)-1
	for in[i] != ev {
		i++
	}
	in[i], in[last] = in[last], nil
	s.arriving[ev.to] = in[:last]
	s.inBits[ev.to*s.words+ev.block>>6] &^= 1 << (ev.block & 63)
}

// Upload is a protocol's answer to "what should this node send next".
type Upload struct {
	To    int
	Block int
}

// Protocol drives the simulation.
type Protocol interface {
	// NextUpload is invoked when node u's upload port is free. Returning
	// ok = false parks u until an event that may change the answer (u
	// gains a block, a download port near u frees, or a timer fires).
	// The returned target must need the block, have a free port, and be
	// alive; the engine validates and errors out otherwise.
	NextUpload(u int, s *State) (Upload, bool)
	// Wakeups returns protocol timer periods; the engine calls OnTimer
	// every period until completion. Nil means no timers.
	Wakeups() []float64
	// OnTimer is called when a timer fires (e.g. a BitTorrent choke
	// recomputation). idx is the index into Wakeups().
	OnTimer(idx int, s *State)
	// Neighbors returns the nodes that might upload to v (v's in-edge
	// peers), or nil for "anyone" (complete overlays). The engine uses
	// it to wake exactly the parked nodes whose answer can have changed
	// when a block lands at v.
	Neighbors(v int) []int32
	// OnDeliver is called after block b lands at node to — the hook
	// BitTorrent-style protocols use for download-rate accounting and
	// rarity statistics.
	OnDeliver(from, to, block int, s *State)
}

// FaultAware is optionally implemented by protocols that want fault
// notifications beyond what the State view exposes — typically to keep
// rarity statistics honest or to drop dead peers from choke lists.
type FaultAware interface {
	// OnCrash is called after node v's state is fully torn down (alive
	// cleared, in-flight transfers aborted, ports restored).
	OnCrash(v int, s *State)
	// OnRejoin is called after node v rejoined; wiped reports whether
	// it came back with an empty cache.
	OnRejoin(v int, wiped bool, s *State)
	// OnLoss is called when a transfer is dropped at delivery time
	// (lost in flight, or corrupt = delivered but discarded).
	OnLoss(from, to, block int, corrupt bool, s *State)
}

// AdversaryAware is optionally implemented by protocols that want to
// observe adversary-faulted deliveries — typically to score and
// quarantine the offending sender.
type AdversaryAware interface {
	// OnAdversaryDrop is called when sender from's strategy denied the
	// delivery of block to node to: corrupt reports garbage that failed
	// verification (a corrupter), false a transfer that stalled (a
	// false-advertiser). The receiver's download port was held for the
	// whole transfer either way.
	OnAdversaryDrop(from, to, block int, corrupt bool, s *State)
}

// TransferRecord is one transfer as recorded by Config.RecordTrace.
type TransferRecord struct {
	Start, End      float64
	From, To, Block int32
	// Lost marks a transfer dropped at delivery time; Corrupt
	// additionally marks it as delivered-but-discarded. Adversary marks
	// the sender's strategy — not the network — as the cause (Corrupt
	// then distinguishes a corrupter's garbage from a
	// false-advertiser's stall).
	Lost      bool
	Corrupt   bool
	Adversary bool
}

// Result reports a finished asynchronous run.
type Result struct {
	// CompletionTime is when the last client finished (time units).
	CompletionTime float64
	// ClientCompletion[v] is when client v finished (most recent
	// completion under churn).
	ClientCompletion []float64
	// Transfers is the number of block deliveries.
	Transfers int

	// Fault-layer outcomes; zero without a fault plan.

	// Lost counts transfers dropped in flight; Corrupt counts transfers
	// delivered but discarded.
	Lost, Corrupt int
	// FaultLog lists applied crash/rejoin events (continuous Time).
	FaultLog []fault.Event
	// Trace holds every finished transfer when RecordTrace is set,
	// ordered by End time (aborted transfers are not recorded: their
	// bandwidth was reclaimed by the crash teardown).
	Trace []TransferRecord
	// FinalHave snapshots every node's final block set (RecordTrace).
	FinalHave []*bitset.Set
	// FinalAlive is the final liveness mask (RecordTrace + fault or
	// arrival plan).
	FinalAlive []bool

	// Open holds the open-system verdict and robustness instrumentation;
	// nil for closed-batch runs. In open mode FaultLog carries the
	// Arrive/Depart events.
	Open *arrival.OpenResult

	// Adversary-layer outcomes; zero without an adversary plan.

	// Strategies records each node's assigned strategy (index = node
	// id); nil for compliant runs.
	Strategies []adversary.Strategy
	// AdvStalled counts transfers a false-advertiser claimed but never
	// delivered; AdvCorrupt counts a corrupter's transfers that failed
	// block verification and were discarded. (Refusals happen at upload
	// start in this engine and consume no bandwidth, so they have no
	// counter here.)
	AdvStalled, AdvCorrupt int
	// HonestUseful counts deliveries to honest clients; HonestWasted
	// counts honest clients' download-port time slots wasted by
	// adversary-faulted transfers.
	HonestUseful, HonestWasted int
}

// HonestStallRate returns the fraction of honest clients' spent
// download slots that an adversary wasted (0 for compliant runs).
func (r *Result) HonestStallRate() float64 {
	if r.HonestUseful+r.HonestWasted == 0 {
		return 0
	}
	return float64(r.HonestWasted) / float64(r.HonestUseful+r.HonestWasted)
}

// ErrMaxTime is returned when the protocol fails to complete in time.
var ErrMaxTime = errors.New("asim: exceeded MaxTime before completion")

type eventKind int

const (
	evComplete eventKind = iota + 1 // a transfer finished
	evTimer
	evCrash   // a fault-plan crash arrival
	evRejoin  // a crashed node returns
	evAdvWake // a throttler's upload window reopens
	evArrive  // an open-system peer arrival (internal/arrival)
	evDepart  // an open-system peer departs for good
)

type event struct {
	at   float64
	seq  int // tie-break for determinism
	kind eventKind

	// evComplete fields.
	from, to, block int
	start           float64
	cancelled       bool // aborted by a crash; skip on pop

	// evTimer field.
	timer int

	// evRejoin / evAdvWake field.
	node int
}

// eventQueue is a binary min-heap of pending events ordered by
// (at, seq), a total order, so the pop sequence does not depend on the
// heap's layout.
type eventQueue []*event

// before reports whether a is due before b.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds ev, whose at and seq are set, to the queue.
func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	// x, the last leaf, is likely to belong near the bottom again, so
	// the hole at the root walks down to a leaf along the earlier child
	// first (one comparison per level) and x then sifts up from there.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && before(h[c+1], h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !before(x, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	return top
}

// Run executes the protocol to completion.
func Run(cfg Config, p Protocol) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes == 1 {
		return &Result{ClientCompletion: make([]float64, 1)}, nil
	}
	c := cfg.withDefaults()
	eng, err := newEngine(c, p)
	if err != nil {
		return nil, err
	}
	// Kick every node once; most will park immediately.
	for v := 0; v < c.Nodes; v++ {
		if err := eng.tryStartUpload(v); err != nil {
			return nil, err
		}
	}
	return eng.loop()
}

// newEngine builds the engine for an already-validated, defaulted
// config: state, result, plans acquired, timers and the first crash
// and arrival events scheduled. The caller kicks the nodes (fresh run)
// or restores a snapshot (resume).
func newEngine(c Config, p Protocol) (*engine, error) {
	sw, err := swarm.New(c.Nodes, c.Blocks, c.Fault, c.Adversary, c.Arrivals, false)
	if err != nil {
		return nil, err
	}
	words := (c.Blocks + 63) / 64
	st := &State{
		Peers:    sw.Peers,
		arriving: make([][]*event, c.Nodes),
		inBits:   make([]uint64, c.Nodes*words),
		words:    words,
	}
	res := &Result{ClientCompletion: make([]float64, c.Nodes)}
	if c.RecordTrace {
		// A full run delivers exactly (n-1)*k useful blocks; reserving
		// that floor up front keeps steady-state recording out of the
		// append-growth path.
		res.Trace = make([]TransferRecord, 0, (c.Nodes-1)*c.Blocks)
	}

	eng := &engine{
		cfg:       c,
		st:        st,
		sw:        sw,
		proto:     p,
		res:       res,
		fates:     sw.Adv != nil || sw.Fault != nil && sw.Fault.Lossy(),
		uploading: make([]bool, c.Nodes),
		parked:    make([]bool, c.Nodes),
		curUpload: make([]*event, c.Nodes),
	}
	if sw.Fault != nil || sw.Open != nil {
		eng.faultAware, _ = p.(FaultAware)
	}
	if sw.Adv != nil {
		eng.advAware, _ = p.(AdversaryAware)
		eng.advWakePending = make([]bool, c.Nodes)
		res.Strategies = sw.Adv.Strategies()
	}
	for i, period := range p.Wakeups() {
		if period <= 0 {
			return nil, fmt.Errorf("asim: timer %d period %v must be positive", i, period)
		}
		tev := eng.newEvent()
		tev.at, tev.kind, tev.timer = period, evTimer, i
		eng.schedule(tev)
	}
	if sw.Fault != nil {
		eng.scheduleNextCrash()
	}
	if sw.Open != nil {
		eng.scheduleNextArrival()
	}
	return eng, nil
}

// finish ends the run at the current time: it stamps the completion
// time, copies the swarm's event log and tally into the result,
// snapshots the final state under RecordTrace, and seals an open run's
// verdict.
func (e *engine) finish(v arrival.Verdict, reason arrival.Reason) *Result {
	res, sw := e.res, e.sw
	res.CompletionTime = e.st.now
	res.FaultLog = sw.Log
	tl := &sw.Tally
	res.Transfers = tl.Useful
	res.Lost, res.Corrupt = tl.Drops[trace.KindFault], tl.Drops[trace.KindFaultCorrupt]
	res.AdvStalled, res.AdvCorrupt = tl.Drops[trace.KindStalled], tl.Drops[trace.KindGarbage]
	res.HonestUseful, res.HonestWasted = tl.HonestUseful, tl.HonestWasted
	if e.cfg.RecordTrace {
		res.FinalHave, res.FinalAlive = sw.Final()
	}
	if sw.Open != nil {
		res.Open = sw.Seal(v, reason, func(u int) float64 { return res.ClientCompletion[u] }, e.cfg.RecordTrace)
	}
	return res
}

// incomplete reports a closed run that stopped short of completion.
func (e *engine) incomplete(where string) error {
	st := e.st
	if st.Adversarial() {
		return fmt.Errorf("%w (%s, honest clients complete: %d/%d)",
			ErrMaxTime, where, st.HonestClientsComplete(), st.HonestClients())
	}
	return fmt.Errorf("%w (%s, clients complete: %d/%d)",
		ErrMaxTime, where, st.ClientsComplete(), e.cfg.Nodes-1)
}

// loop drains the event queue to completion, checkpointing at handled-
// event boundaries when configured.
func (e *engine) loop() (*Result, error) {
	eng, c, st, sw, p := e, e.cfg, e.st, e.sw, e.proto
	for len(eng.queue) > 0 {
		ev := eng.queue.pop()
		if ev.cancelled {
			// Aborted by a crash; its arriving/curUpload references were
			// cleared at cancellation time.
			eng.release(ev)
			continue
		}
		if ev.at > c.MaxTime {
			if sw.Open != nil {
				// Bounded-run truncation: an open run that outlives its
				// budget is reported as Unstable, never as an error.
				return eng.finish(arrival.VerdictUnstable, arrival.ReasonBudget), nil
			}
			return nil, eng.incomplete(fmt.Sprintf("t=%.2f", ev.at))
		}
		st.now = ev.at
		var err error
		switch ev.kind {
		case evComplete:
			err = eng.finishTransfer(ev)
		case evTimer:
			p.OnTimer(ev.timer, st)
			// A choke rotation can create work anywhere: wake everyone
			// parked. Timers are sparse, so this stays cheap.
			for v := 0; v < c.Nodes && err == nil; v++ {
				if eng.parked[v] {
					err = eng.tryStartUpload(v)
				}
			}
			period := p.Wakeups()[ev.timer]
			tev := eng.newEvent()
			tev.at, tev.kind, tev.timer = st.now+period, evTimer, ev.timer
			eng.schedule(tev)
		case evCrash:
			sw.Fault.TakeCrash()
			err = eng.applyCrash()
			eng.scheduleNextCrash()
		case evRejoin:
			wiped := sw.Fault.RejoinWipes()
			sw.Rejoin(ev.node, st.now, wiped)
			if wiped {
				eng.res.ClientCompletion[ev.node] = 0
			}
			err = eng.joined(ev.node, wiped)
		case evAdvWake:
			eng.advWakePending[ev.node] = false
			err = eng.tryStartUpload(ev.node)
		case evArrive:
			err = eng.joined(sw.Admit(st.now), true)
			eng.scheduleNextArrival()
		case evDepart:
			err = eng.applyDepart(ev.node)
		}
		if err != nil {
			return nil, err
		}
		if sw.Open != nil {
			// Open runs end in a verdict: the watchdog truncates a
			// diverging or starving swarm, and the drain check requires
			// the arrival pool to be exhausted first.
			if reason := sw.Observe(st.now); reason != arrival.ReasonNone {
				return eng.finish(arrival.VerdictUnstable, reason), nil
			}
			if sw.Drained() {
				return eng.finish(arrival.VerdictDrained, arrival.ReasonNone), nil
			}
		} else if st.AllClientsComplete() {
			// A delivery, or a crash removing the last incomplete
			// client, finishes a closed run.
			return eng.finish(arrival.VerdictNone, arrival.ReasonNone), nil
		}
		// Fully handled; nothing retains the event past this point.
		eng.release(ev)
		eng.handled++
		if err := eng.maybeCheckpoint(); err != nil {
			return nil, err
		}
	}
	if sw.Open != nil {
		// The queue can drain through cancelled events (a departure
		// aborting the last in-flight transfers), so re-check the drain
		// criterion before ruling the run stuck.
		switch {
		case sw.Drained():
			return eng.finish(arrival.VerdictDrained, arrival.ReasonNone), nil
		case sw.ArrivalsTruncated():
			return eng.finish(arrival.VerdictUnstable, arrival.ReasonBudget), nil
		default:
			// Peers are present and incomplete but no event will ever
			// fire again: permanent protocol starvation.
			return eng.finish(arrival.VerdictUnstable, arrival.ReasonStarvation), nil
		}
	}
	return nil, eng.incomplete("event queue drained")
}

type engine struct {
	cfg   Config
	st    *State
	sw    *swarm.Core
	proto Protocol
	res   *Result
	queue eventQueue
	seq   int
	// handled counts fully processed (non-cancelled) events; checkpoints
	// fire at multiples of Config.Checkpoint.Every.
	handled int
	// fates is set when a delivery can fail: an adversary plan or a
	// lossy fault plan is active.
	fates bool

	uploading  []bool   // upload port busy
	parked     []bool   // NextUpload returned false; awaiting a wake event
	curUpload  []*event // pending completion event of each node's upload
	faultAware FaultAware

	advAware       AdversaryAware
	advWakePending []bool // an evAdvWake is already queued for this node

	// free recycles popped events: the loop pops, handles, and releases
	// each event, so the steady state churns a fixed working set instead
	// of allocating one event per transfer.
	free []*event
}

// newEvent returns a zeroed event, reusing a released one when
// available.
func (e *engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = event{}
		return ev
	}
	return &event{}
}

// release returns a popped, fully handled event to the free list. The
// caller must ensure no queue, arriving, or curUpload reference
// remains.
func (e *engine) release(ev *event) { e.free = append(e.free, ev) }

func (e *engine) schedule(ev *event) {
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

// scheduleNextCrash turns the plan's next Poisson arrival into an
// engine event. Arrivals beyond MaxTime are discarded — they could
// never take effect and must not trip the timeout check.
func (e *engine) scheduleNextCrash() {
	at, ok := e.sw.Fault.NextCrash()
	if !ok || at > e.cfg.MaxTime {
		return
	}
	ev := e.newEvent()
	ev.at, ev.kind = at, evCrash
	e.schedule(ev)
}

// scheduleNextArrival turns the open-system plan's pending arrival into
// an engine event, mirroring scheduleNextCrash. The plan's position is
// consumed when the event is handled, so a checkpoint can cross-check
// the queued event against the plan. An arrival beyond MaxTime marks
// the stream as budget-truncated instead of being scheduled.
func (e *engine) scheduleNextArrival() {
	at, ok := e.sw.NextArrival()
	if !ok {
		return
	}
	if at > e.cfg.MaxTime {
		e.sw.TruncateArrivals()
		return
	}
	ev := e.newEvent()
	ev.at, ev.kind = at, evArrive
	e.schedule(ev)
}

// applyCrash picks a victim and tears it down. Its rejoin, when the
// plan brings crashed nodes back, becomes an engine event.
func (e *engine) applyCrash() error {
	st, sw := e.st, e.sw
	v := sw.PickVictim()
	if v < 0 {
		return nil // nobody left to kill
	}
	wakeSenders, freedReceiver := e.teardown(v)
	if delay, ok := sw.Crash(v, st.now); ok {
		rev := e.newEvent()
		rev.at, rev.kind, rev.node = st.now+delay, evRejoin, v
		e.schedule(rev)
	}
	if e.faultAware != nil {
		e.faultAware.OnCrash(v, st)
	}
	return e.rewake(wakeSenders, freedReceiver)
}

// applyDepart removes open-system peer v for good: the crash teardown
// without a rejoin. FaultAware protocols see it as a crash.
func (e *engine) applyDepart(v int) error {
	wakeSenders, freedReceiver := e.teardown(v)
	e.sw.Depart(v, e.st.now)
	if e.faultAware != nil {
		e.faultAware.OnCrash(v, e.st)
	}
	return e.rewake(wakeSenders, freedReceiver)
}

// teardown aborts node v's transfers — shared by crashes and
// open-system departures: its outgoing upload and every transfer in
// flight toward it are cancelled, and the ports those transfers held are
// restored. It returns the senders whose upload ports freed (sorted
// ascending) and the receiver whose download port freed (-1 if none);
// the caller re-wakes them once the swarm has marked v absent.
func (e *engine) teardown(v int) (wakeSenders []int, freedReceiver int) {
	st := e.st
	e.parked[v] = false

	freedReceiver = -1
	// Abort v's outgoing transfer: the receiver's download port frees.
	if out := e.curUpload[v]; out != nil {
		out.cancelled = true
		e.curUpload[v] = nil
		e.uploading[v] = false
		st.removeInFlight(out)
		freedReceiver = out.to
	}
	// Abort transfers in flight toward v: each sender's port frees. The
	// per-sender mutations are independent (a sender has at most one
	// upload in flight), and wakeSenders is sorted below before any
	// order-sensitive use, so arrival-list order cannot leak into the
	// trace.
	in := st.arriving[v]
	for _, ev := range in {
		ev.cancelled = true
		e.uploading[ev.from] = false
		e.curUpload[ev.from] = nil
		wakeSenders = append(wakeSenders, ev.from)
	}
	sort.Ints(wakeSenders)
	clear(in)
	st.arriving[v] = in[:0]
	clear(st.inBits[v*st.words : (v+1)*st.words])
	return wakeSenders, freedReceiver
}

// rewake re-polls the peers a teardown freed, with the state fully
// consistent: freed senders first (ascending, for determinism), then the
// in-neighbors of the receiver whose download port was released.
func (e *engine) rewake(wakeSenders []int, freedReceiver int) error {
	for _, u := range wakeSenders {
		if err := e.tryStartUpload(u); err != nil {
			return err
		}
	}
	if freedReceiver >= 0 && e.st.Alive(freedReceiver) {
		return e.wakeInNeighbors(freedReceiver)
	}
	return nil
}

// joined wakes node v after it rejoined or, in an open run, arrived (a
// wiped rejoin of a never-before-seen node): FaultAware protocols hear
// of it, v polls, and peers parked for lack of targets may now serve it
// — every download port at v is free.
func (e *engine) joined(v int, wiped bool) error {
	if e.faultAware != nil {
		e.faultAware.OnRejoin(v, wiped, e.st)
	}
	if err := e.tryStartUpload(v); err != nil {
		return err
	}
	return e.wakeInNeighbors(v)
}

// wakeInNeighbors re-polls the parked in-edge peers of v (or every
// parked node on complete overlays).
func (e *engine) wakeInNeighbors(v int) error {
	if nbrs := e.proto.Neighbors(v); nbrs != nil {
		for _, u := range nbrs {
			if e.parked[u] {
				if err := e.tryStartUpload(int(u)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for u := 0; u < e.st.N(); u++ {
		if e.parked[u] {
			if err := e.tryStartUpload(u); err != nil {
				return err
			}
		}
	}
	return nil
}

// tryStartUpload polls the protocol for node u if its port is free.
func (e *engine) tryStartUpload(u int) error {
	if e.uploading[u] {
		return nil
	}
	if !e.st.Alive(u) {
		return nil // dead nodes neither poll nor park
	}
	if e.st.CountOf(u) == 0 {
		e.parked[u] = true
		return nil
	}
	adv := e.sw.Adv
	if adv != nil && adv.Refuses(u, e.st.now) {
		// The node's own strategy declines to upload; the protocol is
		// not even polled. A throttler is re-woken when its window
		// reopens; free-riders and completed defectors park for good.
		e.parked[u] = true
		if at := adv.RetryAt(u); !math.IsInf(at, 1) && !e.advWakePending[u] {
			e.advWakePending[u] = true
			wev := e.newEvent()
			wev.at, wev.kind, wev.node = at, evAdvWake, u
			e.schedule(wev)
		}
		return nil
	}
	up, ok := e.proto.NextUpload(u, e.st)
	if !ok {
		e.parked[u] = true
		return nil
	}
	if err := e.validate(u, up); err != nil {
		return err
	}
	if adv != nil {
		adv.NoteUpload(u, e.st.now)
	}
	e.parked[u] = false
	e.uploading[u] = true
	rate := e.cfg.UploadRate[u]
	down := e.cfg.DownloadRate[up.To]
	if e.cfg.DownloadPorts > 0 {
		down /= float64(e.cfg.DownloadPorts)
	}
	if down < rate {
		rate = down
	}
	ev := e.newEvent()
	ev.at, ev.kind = e.st.now+1/rate, evComplete
	ev.from, ev.to, ev.block = u, up.To, up.Block
	ev.start = e.st.now
	e.st.addInFlight(ev)
	e.curUpload[u] = ev
	e.schedule(ev)
	return nil
}

func (e *engine) validate(u int, up Upload) error {
	st := e.st
	switch {
	case up.To < 0 || up.To >= st.N():
		return fmt.Errorf("asim: node %d uploads to out-of-range node %d", u, up.To)
	case up.To == u:
		return fmt.Errorf("asim: node %d uploads to itself", u)
	case up.Block < 0 || up.Block >= st.K():
		return fmt.Errorf("asim: node %d uploads out-of-range block %d", u, up.Block)
	case !st.Has(u, up.Block):
		return fmt.Errorf("asim: node %d does not hold block %d", u, up.Block)
	case st.Has(up.To, up.Block):
		return fmt.Errorf("asim: node %d already holds block %d", up.To, up.Block)
	case st.InFlightTo(up.To, up.Block):
		return fmt.Errorf("asim: block %d already in flight to node %d", up.Block, up.To)
	case !st.Alive(up.To):
		return fmt.Errorf("asim: node %d uploads to dead node %d", u, up.To)
	case e.cfg.DownloadPorts != Unlimited && st.InFlightCount(up.To) >= e.cfg.DownloadPorts:
		return fmt.Errorf("asim: node %d has no free download port", up.To)
	}
	return nil
}

// finishTransfer lands a block and wakes exactly the nodes whose
// NextUpload answer may have changed: the sender (its port is free), the
// receiver (new inventory to offer), and the receiver's parked
// in-neighbors (a download port at the receiver just freed). A node
// parked for lack of interested neighbors needs no other wake-up:
// neighbors' needs only shrink, so its answer can change only when it
// gains a block itself — and then it is the receiver. When the sender's
// strategy or the fault plan drops the delivery instead, the ports are
// restored, no block lands, and the same wake-ups apply.
func (e *engine) finishTransfer(ev *event) error {
	st, sw := e.st, e.sw
	st.removeInFlight(ev)
	e.uploading[ev.from] = false
	e.curUpload[ev.from] = nil

	if e.fates {
		af := adversary.Deliver
		if sw.Adv != nil {
			af = sw.Adv.DeliveryFate(ev.from)
		}
		if kind, dropped := sw.Resolve(ev.to, af); dropped {
			corrupt, byAdv := swarm.Corrupt(kind), swarm.ByAdversary(kind)
			if e.cfg.RecordTrace {
				e.res.Trace = append(e.res.Trace, TransferRecord{
					Start: ev.start, End: ev.at,
					From: int32(ev.from), To: int32(ev.to), Block: int32(ev.block),
					Lost: true, Corrupt: corrupt, Adversary: byAdv,
				})
			}
			switch {
			case byAdv && e.advAware != nil:
				e.advAware.OnAdversaryDrop(ev.from, ev.to, ev.block, corrupt, st)
			case !byAdv && e.faultAware != nil:
				e.faultAware.OnLoss(ev.from, ev.to, ev.block, corrupt, st)
			}
			if err := e.tryStartUpload(ev.from); err != nil {
				return err
			}
			// The receiver's port freed and the block is no longer in
			// flight: parked in-neighbors may now retry it.
			return e.wakeInNeighbors(ev.to)
		}
	}

	if useful, completed := sw.Deliver(ev.to, ev.block); useful {
		if completed {
			e.res.ClientCompletion[ev.to] = st.now
			if sw.Adv != nil {
				sw.Adv.NoteComplete(ev.to)
			}
		}
		if sw.Open != nil && ev.to != 0 {
			if delay, ok := sw.DepartAfter(ev.to); ok {
				dev := e.newEvent()
				dev.at, dev.kind, dev.node = st.now+delay, evDepart, ev.to
				e.schedule(dev)
			}
		}
	}
	if e.cfg.RecordTrace {
		e.res.Trace = append(e.res.Trace, TransferRecord{
			Start: ev.start, End: ev.at,
			From: int32(ev.from), To: int32(ev.to), Block: int32(ev.block),
		})
	}
	e.proto.OnDeliver(ev.from, ev.to, ev.block, st)

	if err := e.tryStartUpload(ev.from); err != nil {
		return err
	}
	if err := e.tryStartUpload(ev.to); err != nil {
		return err
	}
	return e.wakeInNeighbors(ev.to)
}
