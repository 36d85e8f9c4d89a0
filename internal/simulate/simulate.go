// Package simulate implements the paper's synchronous, tick-based
// dissemination simulator.
//
// Model (Section 2.1 of the paper): node 0 is the server and initially
// holds all k blocks; clients 1..n-1 start empty. Time advances in ticks.
// In each tick every node may upload at most U blocks and download at
// most D blocks (U = 1 in the paper; D >= U, possibly unbounded), and a
// node may only upload blocks it held at the *start* of the tick
// (store-and-forward at block granularity). All transfers within a tick
// land simultaneously at the tick boundary.
//
// An algorithm is a Scheduler: given the tick number and a read-only view
// of the global state, it proposes the tick's transfer set. The engine
// validates every proposal against the bandwidth and store-and-forward
// rules — a scheduler bug is surfaced as an error, never silently
// repaired — applies the transfers, and runs until every client holds the
// whole file.
//
// # Fault injection
//
// Config.Fault attaches a fault.Plan: at the start of each tick the
// engine applies that tick's crash and rejoin events, and each scheduled
// transfer may be lost or corrupted in flight. Schedulers observe the
// adversity exclusively through the State view — Alive, FaultEvents,
// LostLastTick — and the engine enforces, on top of the usual rules, that
// no transfer touches a dead node. With a nil Plan the engine is
// byte-identical to the fault-free implementation: no extra allocations,
// no RNG draws, identical results.
//
// # Adversarial behavior
//
// Config.Adversary attaches an adversary.Plan: each scheduled transfer
// is first put to the sender's strategy (free-riders refuse,
// false-advertisers stall, corrupters serve garbage that fails
// verification at the receiver), and only transfers the adversary lets
// through reach the fault layer — a block that was never sent cannot
// also be lost in the network. Adversary-faulted transfers surface to
// schedulers through the same LostLastTick channel as fault losses,
// with LostTransfer.Adversary set, and completion switches to the
// honest-only criterion: the run ends when every *honest* client holds
// the file (a free-rider that starves under barter must not hold the
// swarm hostage). With a nil Plan the engine is byte-identical to the
// adversary-free implementation.
package simulate

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/bitset"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/swarm"
	"barterdist/internal/trace"
)

// Unlimited marks a download capacity with no bound.
const Unlimited = 0

// Transfer is one block moving from one node to another within a tick.
// It is an alias for the columnar trace package's element type, so
// schedulers and the trace store share one representation.
type Transfer = trace.Transfer

// LostTransfer is a scheduled transfer that never delivered a block:
// dropped by the fault layer or denied by the sender's adversarial
// strategy. Corrupt distinguishes "arrived but failed verification"
// (a fault-layer corruption or a corrupter's garbage — block
// verification at delivery discards both) from "vanished"; Adversary
// marks the sender's strategy, not the network, as the cause. Either
// way the receiver's download slot was wasted for the tick.
type LostTransfer struct {
	Transfer
	Corrupt   bool
	Adversary bool
}

// Lost-transfer kinds recorded per drop in the kinded columns of
// Result.Trace when an adversary plan is active. They alias the trace
// package's kinds, which own the canonical ordering.
const (
	// LostKindFault: vanished in the network (fault layer).
	LostKindFault = trace.KindFault
	// LostKindFaultCorrupt: corrupted in the network, discarded at
	// verification.
	LostKindFaultCorrupt = trace.KindFaultCorrupt
	// LostKindRefused: the sender silently refused (free-rider,
	// completed defector, throttler outside its window).
	LostKindRefused = trace.KindRefused
	// LostKindStalled: a false-advertiser's claimed block never
	// materialized.
	LostKindStalled = trace.KindStalled
	// LostKindGarbage: a corrupter's bytes failed verification.
	LostKindGarbage = trace.KindGarbage
)

// Config describes a simulation instance.
type Config struct {
	// Nodes is the total node count n (server + clients). Must be >= 1.
	Nodes int
	// Blocks is the file size k in blocks. Must be >= 1.
	Blocks int
	// UploadCap U: max blocks a node may upload per tick. 0 means the
	// paper's default of 1.
	UploadCap int
	// ServerUploadCap overrides UploadCap for node 0, modeling the
	// paper's "higher server bandwidths" variant (server bandwidth m·U,
	// Section 2.3.4). 0 means same as UploadCap.
	ServerUploadCap int
	// DownloadCap D: max blocks a node may download per tick.
	// Unlimited (0) means no bound. Must be 0 or >= UploadCap.
	DownloadCap int
	// MaxTicks aborts runaway schedulers. 0 selects a generous default
	// proportional to the trivial pipeline bound.
	MaxTicks int
	// RecordTrace keeps every tick's transfer list in the result so that
	// mechanism verifiers and RunAudit can audit the run. Costs memory
	// on big runs.
	RecordTrace bool
	// Fault attaches a fault-injection plan (crashes, rejoins, transfer
	// loss). nil runs the reliable engine unchanged. A Plan is
	// single-use: build one per run.
	Fault *fault.Plan
	// Adversary attaches a behavior-injection plan (free-riders,
	// throttlers, false-advertisers, corrupters, defectors). nil runs
	// the compliant engine unchanged. Like Fault, a Plan is single-use
	// and composes with it: the adversary rules on each transfer first.
	Adversary *adversary.Plan
	// Arrivals attaches an open-system plan (Poisson peer arrivals,
	// departures at completion or selfish early exit, seed policy).
	// Nodes then becomes the *capacity* — an upper bound on cumulative
	// arrivals — and the run ends with a stability verdict in
	// Result.Open instead of a closed-batch completion. nil runs the
	// closed engine unchanged. Single-use, and mutually exclusive with
	// Fault and Adversary for now.
	Arrivals *arrival.Plan
	// AuditWorkers is ignored: RunAudit is one sequential pass.
	//
	// Deprecated: the field remains only so existing callers compile;
	// mechanism verifiers and asim.RunAudit take their own widths.
	AuditWorkers int
	// Checkpoint enables periodic crash-safe snapshots of the full
	// engine state: every Checkpoint.Every ticks the engine atomically
	// rewrites Checkpoint.Path with a snapshot a later Resume call can
	// continue from. Requires a CheckpointableScheduler. nil disables
	// checkpointing with zero overhead.
	Checkpoint *checkpoint.Policy
}

// Validate checks the raw configuration without mutating it. All
// invalid fields are reported in a single error — raw values are checked
// before any defaulting, so a negative UploadCap can never be
// zero-corrected into a silently inconsistent ServerUploadCap pairing.
// Cross-field constraints are checked against the effective
// (post-default) values so that Validate agrees with what Run will use.
func (c *Config) Validate() error {
	var bad []string
	if c.Nodes < 1 {
		bad = append(bad, fmt.Sprintf("Nodes = %d, need >= 1", c.Nodes))
	}
	if c.Blocks < 1 {
		bad = append(bad, fmt.Sprintf("Blocks = %d, need >= 1", c.Blocks))
	}
	if c.UploadCap < 0 {
		bad = append(bad, fmt.Sprintf("UploadCap = %d, need >= 0", c.UploadCap))
	}
	if c.ServerUploadCap < 0 {
		bad = append(bad, fmt.Sprintf("ServerUploadCap = %d, need >= 0", c.ServerUploadCap))
	}
	if c.DownloadCap < 0 {
		bad = append(bad, fmt.Sprintf("DownloadCap = %d, need >= 0", c.DownloadCap))
	}
	bad = append(bad, swarm.PlanConflicts(c.Nodes, c.Fault, c.Adversary, c.Arrivals)...)
	if err := c.Checkpoint.Validate(); err != nil {
		bad = append(bad, err.Error())
	}
	if len(bad) > 0 {
		return fmt.Errorf("simulate: invalid config: %s", strings.Join(bad, "; "))
	}
	effUpload := c.UploadCap
	if effUpload == 0 {
		effUpload = 1
	}
	if c.DownloadCap != Unlimited && c.DownloadCap < effUpload {
		return fmt.Errorf("simulate: invalid config: DownloadCap %d < UploadCap %d", c.DownloadCap, effUpload)
	}
	return nil
}

// withDefaults returns a copy with zero fields replaced by the
// documented defaults. The configuration must already be valid.
func (c Config) withDefaults() Config {
	if c.UploadCap == 0 {
		c.UploadCap = 1
	}
	if c.ServerUploadCap == 0 {
		c.ServerUploadCap = c.UploadCap
	}
	if c.MaxTicks == 0 {
		// Pipeline needs k + n - 2; strict-barter worst cases add O(n);
		// leave ample slack for deliberately bad schedulers under test.
		c.MaxTicks = 20*(c.Blocks+c.Nodes) + 1000
	}
	return c
}

// State is the global block-ownership state exposed read-only to
// schedulers. The population view — block sets, liveness, honesty,
// completion counters — is the shared swarm core's; the engine adds the
// tick clock and the per-tick fault and loss feedback.
type State struct {
	*swarm.Peers
	tick int // last completed tick

	events []fault.Event  // applied at the start of the current tick
	lost   []LostTransfer // dropped in the previous tick
	adv    *adversary.Plan
}

// Tick returns the index of the last completed tick (0 before the first).
func (s *State) Tick() int { return s.tick }

// FaultEvents returns the crash/rejoin events applied at the start of
// the current tick, in application order. Schedulers use it to
// invalidate caches (rarity statistics, no-peer memos) and to trigger
// repair paths. The slice is reused across ticks; treat it as read-only
// and do not retain it.
func (s *State) FaultEvents() []fault.Event { return s.events }

// LostLastTick returns the transfers scheduled in the previous tick
// that the fault layer dropped or corrupted — the feedback channel a
// scheduler needs to retry and to keep its accounting honest. The slice
// is reused across ticks; treat it as read-only and do not retain it.
func (s *State) LostLastTick() []LostTransfer { return s.lost }

// Refuses reports whether node u's own strategy refuses uploads in the
// current tick. A node knows its *own* strategy — schedulers may use
// this to model a misbehaving node declining to offer, but learn other
// nodes' strategies only through observed stalls and garbage.
func (s *State) Refuses(u int) bool {
	return s.adv != nil && s.adv.Refuses(u, float64(s.tick+1))
}

// Scheduler proposes each tick's transfers.
type Scheduler interface {
	// Tick appends the transfers for tick t (1-based) to dst and returns
	// the extended slice. It must only schedule blocks the sender holds
	// in the provided state, must respect the bandwidth caps the engine
	// was configured with, and under a fault plan must not involve dead
	// nodes; violations abort the run with an error.
	// Returning no transfers is legal (an idle tick).
	Tick(t int, s *State, dst []Transfer) ([]Transfer, error)
}

// SchedulerFunc adapts a function to the Scheduler interface.
type SchedulerFunc func(t int, s *State, dst []Transfer) ([]Transfer, error)

// Tick implements Scheduler.
func (f SchedulerFunc) Tick(t int, s *State, dst []Transfer) ([]Transfer, error) {
	return f(t, s, dst)
}

// Result summarizes a completed run.
type Result struct {
	// CompletionTime is the tick by whose end the last client completed.
	CompletionTime int
	// ClientCompletion[v] is the tick at which node v (client) completed;
	// index 0 (the server) is 0. Under churn it is the most recent
	// completion (a node that rejoined empty completes again later).
	ClientCompletion []int
	// TotalTransfers counts every block movement, including redundant
	// deliveries of blocks the receiver already obtained the same tick
	// and transfers the fault layer dropped (bandwidth was spent).
	TotalTransfers int
	// UsefulTransfers counts transfers that delivered a new block.
	UsefulTransfers int
	// UploadsPerTick[t-1] is the number of transfers scheduled in tick t.
	UploadsPerTick []int
	// Trace is the columnar transfer log, recorded when
	// Config.RecordTrace is set (nil otherwise). It holds every
	// scheduled transfer per tick plus, under fault or adversary plans,
	// the drop positions and — for adversarial runs — per-drop kinds.
	// Consumers stream it through Trace.Cursor().
	Trace *trace.Log

	// Fault-layer outcomes; zero without a fault plan.

	// FaultLog lists the applied crash/rejoin events; Time is the tick
	// at which each took effect (events apply at the start of a tick).
	FaultLog []fault.Event
	// LostTransfers counts transfers dropped in flight.
	LostTransfers int
	// CorruptTransfers counts transfers delivered but discarded.
	CorruptTransfers int
	// FinalHave is a snapshot of every node's final block set (only when
	// RecordTrace is set) — the ground truth RunAudit replays against.
	FinalHave []*bitset.Set
	// FinalAlive is the final liveness mask (only when RecordTrace is
	// set and a fault or arrival plan was active).
	FinalAlive []bool

	// Open holds the open-system verdict and robustness instrumentation
	// (sojourn times, occupancy trajectory); nil for closed-batch runs.
	// In open mode FaultLog carries the Arrive/Depart events and
	// CompletionTime is the tick the run drained (or was truncated).
	Open *arrival.OpenResult

	// Adversary-layer outcomes; zero without an adversary plan.

	// Strategies records each node's assigned strategy (index = node id)
	// whenever an adversary plan was active — the artifact the post-hoc
	// audits (RunAudit, mechanism.AuditAdversary, VerifyStarvation)
	// replay against. nil for compliant runs.
	Strategies []adversary.Strategy
	// AdvRefused counts transfers the sender's strategy silently
	// refused (free-rider, completed defector, closed throttle window).
	AdvRefused int
	// AdvStalled counts transfers a false-advertiser claimed but never
	// sent.
	AdvStalled int
	// AdvCorrupt counts transfers a corrupter served that failed block
	// verification at the receiver and were discarded.
	AdvCorrupt int
	// HonestUseful counts useful deliveries to honest clients.
	HonestUseful int
	// HonestWasted counts honest clients' download slots wasted by
	// adversary-faulted transfers; HonestWasted/(HonestUseful+
	// HonestWasted) is Table F's honest stall rate.
	HonestWasted int
}

// HonestStallRate returns the fraction of honest clients' spent
// download slots that an adversary wasted (0 for compliant runs).
func (r *Result) HonestStallRate() float64 {
	if r.HonestUseful+r.HonestWasted == 0 {
		return 0
	}
	return float64(r.HonestWasted) / float64(r.HonestUseful+r.HonestWasted)
}

// Efficiency returns useful transfers divided by the upload capacity
// consumed if every node uploaded one block every tick until completion —
// the utilization the paper's middlegame tries to drive to 1.
func (r *Result) Efficiency(n int) float64 {
	if r.CompletionTime == 0 || n == 0 {
		return 0
	}
	return float64(r.UsefulTransfers) / float64(n*r.CompletionTime)
}

// ErrMaxTicks is returned when a scheduler fails to complete within the
// configured budget — typically a livelocked or deadlocked protocol.
var ErrMaxTicks = errors.New("simulate: exceeded MaxTicks before completion")

// rejoinTick converts a crash applied at tick t with rejoin delay d
// into the tick at which the node returns: the first tick boundary at
// least d after the crash, and never the crash tick itself.
func rejoinTick(t int, delay float64) int {
	rt := t + int(math.Ceil(delay))
	if rt <= t {
		rt = t + 1
	}
	return rt
}

// runner carries everything one run needs across ticks. All per-tick
// scratch lives here so that a steady-state tick allocates nothing:
// the transfer buffer, the drop-index and drop-kind staging slices,
// the per-node capacity counters (reset by epoch stamp, not by an
// O(n) zeroing loop), and the lost-transfer swap buffer are reused
// verbatim from tick to tick.
type runner struct {
	c     Config
	st    *State
	sw    *swarm.Core
	res   *Result
	sched Scheduler
	// fates is set when a transfer can fail: an adversary plan or a
	// lossy fault plan is active.
	fates bool
	// pending holds the population events not yet due — rejoins under a
	// fault plan, departures in an open run (the two never mix) — sorted
	// by Time.
	pending []fault.Event

	caps         *capScratch
	buf          []Transfer
	dropIdx      []int32        // staging: this tick's drop indices (ascending)
	dropKinds    []uint8        // staging: parallel kinds (adversarial runs)
	nextLost     []LostTransfer // this tick's drops; swapped into st.lost at the boundary
	completedNow []int32        // clients that completed this tick (defector latch)
}

// capScratch holds the per-node upload/download counters used to
// validate a tick's proposal. Instead of zeroing two length-n arrays
// every tick, each counter carries the tick number ("epoch") at which
// it was last touched; a stale stamp reads as zero. Per-tick cost is
// proportional to the transfers scheduled, not to n.
type capScratch struct {
	up, down           []int32
	upStamp, downStamp []int32
	tick               int32
}

func newCapScratch(n int) *capScratch {
	return &capScratch{
		up:        make([]int32, n),
		down:      make([]int32, n),
		upStamp:   make([]int32, n),
		downStamp: make([]int32, n),
	}
}

// reset opens tick t; all counters become implicitly zero.
func (cs *capScratch) reset(t int) { cs.tick = int32(t) }

func (cs *capScratch) addUp(v int) int32 {
	if cs.upStamp[v] != cs.tick {
		cs.upStamp[v] = cs.tick
		cs.up[v] = 0
	}
	cs.up[v]++
	return cs.up[v]
}

func (cs *capScratch) addDown(v int) int32 {
	if cs.downStamp[v] != cs.tick {
		cs.downStamp[v] = cs.tick
		cs.down[v] = 0
	}
	cs.down[v]++
	return cs.down[v]
}

// newRunner validates the config, builds the swarm core (acquiring the
// fault, adversary, and arrival plans), and sets up state and scratch.
// The caller drives step.
func newRunner(cfg Config, sched Scheduler) (*runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	fp, adv, ap := c.Fault, c.Adversary, c.Arrivals
	if c.Nodes == 1 {
		fp, adv, ap = nil, nil, nil // no clients: vacuously complete at t=0
	}
	sw, err := swarm.New(c.Nodes, c.Blocks, fp, adv, ap, c.RecordTrace)
	if err != nil {
		return nil, err
	}
	res := &Result{ClientCompletion: make([]int, c.Nodes)}
	r := &runner{c: c, st: &State{Peers: sw.Peers, adv: adv}, sw: sw, res: res, sched: sched}
	if c.Nodes == 1 {
		return r, nil
	}
	r.fates = adv != nil || fp != nil && fp.Lossy()
	if adv != nil {
		res.Strategies = adv.Strategies()
	}

	r.caps = newCapScratch(c.Nodes)
	if c.RecordTrace {
		res.Trace = trace.New(adv != nil)
		// Size hints from the completion bound: a full run delivers
		// exactly (n-1)·k useful blocks, so the transfer columns hold at
		// least that; the cooperative bound k-1+⌈log₂n⌉ plus generous
		// slack covers the tick offsets. Overshoot is reclaimed when the
		// Result is dropped; undershoot falls back to append doubling.
		transfers := (c.Nodes - 1) * c.Blocks
		ticks := c.Blocks + 2*logCeil(c.Nodes) + 64
		if ap != nil {
			// Open-system runs have no fixed completion bound: (n-1)·k
			// becomes an upper estimate (early exits and truncation
			// deliver less), and the run lasts at least as long as the
			// arrival stream — capacity/λ ticks to admit everyone plus
			// the closed-batch drain tail. Both columns fall back to
			// trace.Reserve's documented append-doubling grow path when
			// the estimates undershoot (e.g. an Unstable run idling to
			// its budget), so sizing here is a hint, never a cap.
			ticks += int(float64(c.Nodes-1)/ap.Options().Rate) + 1
		}
		res.Trace.Reserve(transfers, ticks, 0)
		res.UploadsPerTick = make([]int, 0, ticks)
	}
	return r, nil
}

// logCeil returns ⌈log₂ n⌉ for n >= 1.
func logCeil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// finish ends the run at the end of tick t: it stamps the completion
// tick, copies the swarm's event log and tally into the result,
// snapshots the final state under RecordTrace, and seals an open run's
// verdict.
func (r *runner) finish(t int, v arrival.Verdict, reason arrival.Reason) {
	res, sw := r.res, r.sw
	res.CompletionTime = t
	res.FaultLog = sw.Log
	tl := &sw.Tally
	res.UsefulTransfers = tl.Useful
	res.LostTransfers = tl.Drops[LostKindFault]
	res.CorruptTransfers = tl.Drops[LostKindFaultCorrupt]
	res.AdvRefused = tl.Drops[LostKindRefused]
	res.AdvStalled = tl.Drops[LostKindStalled]
	res.AdvCorrupt = tl.Drops[LostKindGarbage]
	res.HonestUseful, res.HonestWasted = tl.HonestUseful, tl.HonestWasted
	if r.c.RecordTrace {
		res.FinalHave, res.FinalAlive = sw.Final()
		// Recording is over: trim the trace to its compressed footprint
		// so MemSize and long-lived RSS reflect the sealed frames, not
		// append-path headroom.
		res.Trace.Compact()
	}
	if sw.Open != nil {
		res.Open = sw.Seal(v, reason, func(u int) float64 { return float64(res.ClientCompletion[u]) }, r.c.RecordTrace)
	}
}

// over reports whether the run ends at the current tick boundary: an
// open run when it drained, a closed one when every client still in the
// system holds the file.
func (r *runner) over() bool {
	if r.sw.Open != nil {
		return r.sw.Drained()
	}
	return r.st.AllClientsComplete()
}

// queue adds a pending population event. Appends arrive in
// non-decreasing current-tick order, but a rejoin delay or a completion
// linger can leapfrog an earlier entry, so the queue is re-sorted
// (stably: same-time entries keep their scheduling order).
func (r *runner) queue(ev fault.Event) {
	r.pending = append(r.pending, ev)
	sort.SliceStable(r.pending, func(i, j int) bool {
		return r.pending[i].Time < r.pending[j].Time
	})
}

// beginTick applies the population events due at the start of tick t
// and exposes them through the State. Pending rejoins or departures
// drain first: a slot freed by an old crash refills before new crashes
// are drawn (a same-tick crash can hit the rejoined node), and a freshly
// admitted peer can never be torn down by a stale departure in the same
// tick. Then the fault plan's crashes, or the arrival plan's arrivals,
// due by t apply in order.
func (r *runner) beginTick(t int) {
	sw, now := r.sw, float64(t)
	mark := len(sw.Log)
	for len(r.pending) > 0 && r.pending[0].Time <= now {
		ev := r.pending[0]
		r.pending = r.pending[1:]
		v := int(ev.Node)
		if ev.Kind == fault.Depart {
			sw.Depart(v, now)
			continue
		}
		sw.Rejoin(v, now, ev.Wiped)
		if ev.Wiped {
			r.res.ClientCompletion[v] = 0
		}
	}
	if sw.Fault != nil {
		for {
			at, ok := sw.Fault.NextCrash()
			if !ok || at > now {
				break
			}
			sw.Fault.TakeCrash()
			v := sw.PickVictim()
			if v < 0 {
				continue // nobody left to kill
			}
			if delay, ok := sw.Crash(v, now); ok {
				r.queue(fault.Event{Time: float64(rejoinTick(t, delay)), Node: int32(v),
					Kind: fault.Rejoin, Wiped: sw.Fault.RejoinWipes()})
			}
		}
	} else {
		for {
			at, ok := sw.NextArrival()
			if !ok || at > now {
				break
			}
			sw.Admit(now)
		}
	}
	r.st.events = sw.Log[mark:len(sw.Log):len(sw.Log)]
}

// step executes tick t: population events, one scheduler call,
// validation, simultaneous application, and trace recording. It returns
// done=true when the run completed at the end of this tick (or, under
// churn, at the end of the previous one — a crash or a departure can
// finish the run before any transfer is scheduled).
func (r *runner) step(t int) (done bool, err error) {
	st, res, c, sw := r.st, r.res, r.c, r.sw
	if sw.Fault != nil || sw.Open != nil {
		r.beginTick(t)
		if r.over() {
			r.finish(t-1, arrival.VerdictDrained, arrival.ReasonNone)
			return true, nil
		}
	}
	r.buf = r.buf[:0]
	r.buf, err = r.sched.Tick(t, st, r.buf)
	if err != nil {
		return false, fmt.Errorf("simulate: scheduler failed at tick %d: %w", t, err)
	}
	buf := r.buf

	// Validate against state at the start of the tick.
	r.caps.reset(t)
	for _, tr := range buf {
		if err := validate(tr, st, c, r.caps); err != nil {
			return false, fmt.Errorf("simulate: tick %d: %w", t, err)
		}
	}
	r.dropIdx = r.dropIdx[:0]
	r.dropKinds = r.dropKinds[:0]
	r.nextLost = r.nextLost[:0]
	r.completedNow = r.completedNow[:0]
	// Apply simultaneously, in the deterministic apply order the
	// adversary and fault dice are drawn in.
	for i, tr := range buf {
		res.TotalTransfers++ // a dropped transfer still spent its slots
		if r.fates {
			af := adversary.Deliver
			if sw.Adv != nil {
				af = sw.Adv.TransferFate(int(tr.From), float64(t))
			}
			if kind, dropped := sw.Resolve(int(tr.To), af); dropped {
				r.nextLost = append(r.nextLost, LostTransfer{
					Transfer:  tr,
					Corrupt:   swarm.Corrupt(kind),
					Adversary: swarm.ByAdversary(kind),
				})
				if c.RecordTrace {
					r.dropIdx = append(r.dropIdx, int32(i))
					if sw.Adv != nil {
						r.dropKinds = append(r.dropKinds, kind)
					}
				}
				continue
			}
		}
		v := int(tr.To)
		useful, completed := sw.Deliver(v, int(tr.Block))
		if !useful || v == 0 {
			continue
		}
		if completed {
			res.ClientCompletion[v] = t
			if sw.Adv != nil {
				r.completedNow = append(r.completedNow, tr.To)
			}
		}
		if sw.Open != nil {
			if delay, ok := sw.DepartAfter(v); ok {
				r.queue(fault.Event{Time: float64(t + 1 + int(delay)), Node: tr.To, Kind: fault.Depart})
			}
		}
	}
	if sw.Adv != nil {
		// Latch defectors only after the whole tick has landed:
		// blocks arrive simultaneously at the boundary, so a
		// defector's own tick-t uploads were sent before it knew it
		// was done.
		for _, v := range r.completedNow {
			sw.Adv.NoteComplete(int(v))
		}
	}
	res.UploadsPerTick = append(res.UploadsPerTick, len(buf))
	if c.RecordTrace {
		res.Trace.AppendTick(buf, r.dropIdx, r.dropKinds)
	}
	if sw.Fault != nil || sw.Adv != nil {
		// Expose this tick's drops to the scheduler next tick.
		st.lost, r.nextLost = r.nextLost, st.lost
	}
	st.tick = t
	if sw.Open != nil {
		// Open runs end in a verdict, not a closed-batch completion:
		// the watchdog truncates a diverging or starving swarm, and the
		// drain check requires the arrival pool to be exhausted first.
		if reason := sw.Observe(float64(t)); reason != arrival.ReasonNone {
			r.finish(t, arrival.VerdictUnstable, reason)
			return true, nil
		}
	}
	if r.over() {
		r.finish(t, arrival.VerdictDrained, arrival.ReasonNone)
		return true, nil
	}
	return false, nil
}

// Run executes the scheduler until every client holds all blocks (or,
// under a fault plan, every client still part of the system does).
//
//lint:novalidate audited forwarder — newRunner calls cfg.Validate
func Run(cfg Config, sched Scheduler) (*Result, error) {
	r, err := newRunner(cfg, sched)
	if err != nil {
		return nil, err
	}
	if r.c.Nodes == 1 {
		return r.res, nil
	}
	return r.loop(1)
}

// loop drives the runner from tick start (inclusive) to completion,
// writing periodic checkpoints when configured. It is shared by Run
// (start=1) and Resume (start=snapshot tick+1).
func (r *runner) loop(start int) (*Result, error) {
	for t := start; t <= r.c.MaxTicks; t++ {
		done, err := r.step(t)
		if err != nil {
			return nil, err
		}
		if done {
			return r.res, nil
		}
		if err := r.maybeCheckpoint(t); err != nil {
			return nil, err
		}
	}
	st, c := r.st, r.c
	if r.sw.Open != nil {
		// Bounded-run truncation: an open run that outlives its budget
		// is reported as Unstable, never as an error — the verdict is
		// the result.
		r.finish(c.MaxTicks, arrival.VerdictUnstable, arrival.ReasonBudget)
		return r.res, nil
	}
	if st.Adversarial() {
		return nil, fmt.Errorf("%w (MaxTicks=%d, honest clients complete: %d/%d)",
			ErrMaxTicks, c.MaxTicks, st.HonestClientsComplete(), st.HonestClients())
	}
	return nil, fmt.Errorf("%w (MaxTicks=%d, clients complete: %d/%d)",
		ErrMaxTicks, c.MaxTicks, st.ClientsComplete(), c.Nodes-1)
}

func validate(tr Transfer, st *State, c Config, caps *capScratch) error {
	from, to, b := int(tr.From), int(tr.To), int(tr.Block)
	switch {
	case from < 0 || from >= st.N():
		return fmt.Errorf("sender %d out of range", from)
	case to < 0 || to >= st.N():
		return fmt.Errorf("receiver %d out of range", to)
	case from == to:
		return fmt.Errorf("node %d transfers to itself", from)
	case b < 0 || b >= st.K():
		return fmt.Errorf("block %d out of range", b)
	case !st.Alive(from):
		return fmt.Errorf("dead node %d cannot upload", from)
	case !st.Alive(to):
		return fmt.Errorf("dead node %d cannot download", to)
	case !st.Has(from, b):
		return fmt.Errorf("store-and-forward violation: node %d does not hold block %d", from, b)
	}
	upCap := c.UploadCap
	if from == 0 {
		upCap = c.ServerUploadCap
	}
	if int(caps.addUp(from)) > upCap {
		return fmt.Errorf("node %d exceeds upload cap %d", from, upCap)
	}
	if used := caps.addDown(to); c.DownloadCap != Unlimited && int(used) > c.DownloadCap {
		return fmt.Errorf("node %d exceeds download cap %d", to, c.DownloadCap)
	}
	return nil
}

var _ Scheduler = SchedulerFunc(nil)
