// Package mechanism implements the paper's barter-based incentive
// mechanisms (Section 3):
//
//   - strict barter: a client uploads to another client only as half of a
//     simultaneous pairwise exchange (Section 3.1);
//   - credit-limited barter: node u uploads to v only while the running
//     net transfer from u to v stays within a credit limit s
//     (Section 3.2);
//   - triangular barter: credit may also be settled around 3-cycles of
//     simultaneous transfers (Section 3.3).
//
// The server (node 0) is exempt, as in the paper: it uploads without
// receiving anything in return.
//
// The package provides both a live Ledger used by the randomized
// credit-limited algorithm while it schedules transfers, and Verify*
// auditors that check a completed simulation trace against each
// mechanism — the paper's feasibility claims (e.g. "the Hypercube
// algorithm satisfies credit-limited barter with s = 1 when n and k are
// powers of two") become executable assertions.
package mechanism

import (
	"fmt"
	"math"
	"slices"

	"barterdist/internal/trace"
)

// Ledger tracks pairwise net transfers between clients under a credit
// limit. Transfers involving the server are exempt and never recorded.
type Ledger struct {
	limit int
	pairs pairTable
}

// NewLedger returns a ledger enforcing per-pair credit limit s >= 1.
func NewLedger(s int) (*Ledger, error) {
	if s < 1 {
		return nil, fmt.Errorf("mechanism: credit limit %d must be >= 1", s)
	}
	return &Ledger{limit: s}, nil
}

// Limit returns the credit limit s.
func (l *Ledger) Limit() int { return l.limit }

func pairKey(u, v int32) (uint64, bool) {
	if u < v {
		return uint64(uint32(u))<<32 | uint64(uint32(v)), false
	}
	return uint64(uint32(v))<<32 | uint64(uint32(u)), true
}

// Net returns the running net transfer from u to v (positive when u has
// sent more than it received).
func (l *Ledger) Net(u, v int32) int {
	key, swapped := pairKey(u, v)
	n := int(l.pairs.get(key))
	if swapped {
		return -n
	}
	return n
}

// CanSend reports whether u may upload one more block to v without
// exceeding the credit limit. Server transfers are always allowed.
func (l *Ledger) CanSend(u, v int32) bool {
	if u == 0 || v == 0 {
		return true
	}
	return l.Net(u, v)+1 <= l.limit
}

// Record registers a completed one-block transfer from u to v. Server
// transfers are ignored.
func (l *Ledger) Record(u, v int32) {
	if u == 0 || v == 0 {
		return
	}
	l.pairs.book(u, v, 1)
}

// Unrecord reverses a Record for a transfer from u to v that never
// actually delivered — the clawback schedulers apply when the
// adversary layer reports a sender's block as withheld or garbled, so
// misbehavior cannot farm barter credit. Server transfers are ignored,
// mirroring Record.
func (l *Ledger) Unrecord(u, v int32) {
	if u == 0 || v == 0 {
		return
	}
	l.pairs.book(u, v, -1)
}

// MaxAbsNet returns the largest absolute pairwise net balance seen so
// far — the smallest credit limit under which the recorded history would
// have been feasible.
func (l *Ledger) MaxAbsNet() int { return l.pairs.maxAbs() }

// Violation describes where and how a trace broke a mechanism.
type Violation struct {
	Tick   int // 1-based tick of the offending transfer
	From   int32
	To     int32
	Reason string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("mechanism: tick %d, transfer %d->%d: %s", v.Tick, v.From, v.To, v.Reason)
}

// VerifyStrictBarter checks that every client-to-client transfer in the
// trace is matched by a simultaneous reverse transfer between the same
// two clients (Section 3.1's simultaneous exchange requirement). Server
// transfers are exempt. It returns nil if the trace complies.
//
// All verifiers in this package consume a streaming trace.Cursor; the
// caller chooses the view (Log.Cursor for the raw schedule,
// Log.ReleasedCursor to exclude transfers an adversarial sender never
// released).
func VerifyStrictBarter(cur *trace.Cursor) error {
	// fwd[u<<32|v] counts transfers u -> v this tick; order remembers
	// each direction's first appearance so the reported violation is
	// deterministic (the earliest-touched unbalanced direction), not an
	// artifact of map iteration.
	fwd := make(map[uint64]int)
	var order []uint64
	cur.Only(trace.ColFrom | trace.ColTo)
	for cur.NextTick() {
		clear(fwd)
		order = order[:0]
		for cur.NextSpan() {
			sp := cur.Span()
			to := sp.To[:len(sp.From)]
			for j, u := range sp.From {
				v := to[j]
				if u == 0 || v == 0 {
					continue
				}
				key := uint64(u)<<32 | uint64(v)
				if fwd[key] == 0 {
					order = append(order, key)
				}
				fwd[key]++
			}
		}
		for _, key := range order {
			cnt := fwd[key]
			u, v := int32(key>>32), int32(uint32(key))
			rev := fwd[uint64(uint32(v))<<32|uint64(uint32(u))]
			if rev != cnt {
				return &Violation{
					Tick: cur.Tick(), From: u, To: v,
					Reason: fmt.Sprintf("%d transfer(s) forward but %d in return (strict barter requires a simultaneous exchange)", cnt, rev),
				}
			}
		}
	}
	return nil
}

// VerifyCreditLimited checks that at the end of every tick the net
// transfer between every ordered client pair is at most s. Within a tick
// transfers are simultaneous, so an exchange nets to zero regardless of
// ordering. It returns nil if the trace complies.
func VerifyCreditLimited(cur *trace.Cursor, s int) error {
	if s < 1 {
		return fmt.Errorf("mechanism: credit limit %d must be >= 1", s)
	}
	if o, _ := creditWalk(cur, nil, s, false); o != nil {
		return o.violation(creditReason(o, s))
	}
	return nil
}

func creditReason(o *overLimit, s int) string {
	return fmt.Sprintf("net transfer %d exceeds credit limit %d", o.net, s)
}

// MinimalCreditLimit returns the smallest credit limit s under which the
// trace satisfies credit-limited barter — i.e. the peak per-pair
// imbalance at any tick boundary. A fully cooperative trace may return
// large values; the Riffle Pipeline returns 1.
func MinimalCreditLimit(cur *trace.Cursor) int {
	_, peak := creditWalk(cur, nil, math.MaxInt, false)
	return peak
}

// VerifyCreditLimitedMinimal returns, from one walk over cur, what
// MinimalCreditLimit and VerifyCreditLimited return over the same view:
// the walk records the first pair over s and carries on to the end for
// the peak. A credit-verified run whose released view equals its full
// view (an unkinded log) reads its trace once this way instead of twice.
func VerifyCreditLimitedMinimal(cur *trace.Cursor, s int) (int, error) {
	if s < 1 {
		return MinimalCreditLimit(cur), fmt.Errorf("mechanism: credit limit %d must be >= 1", s)
	}
	o, peak := creditWalk(cur, nil, s, true)
	if o != nil {
		return peak, o.violation(creditReason(o, s))
	}
	return peak, nil
}

// VerifyCreditLimitedLog is VerifyCreditLimited over l: its released
// view (Log.ReleasedCursor) when released is set, else every scheduled
// transfer (Log.Cursor).
//
// Deprecated: use VerifyCreditLimited with a cursor over l. workers is
// ignored; the check is one sequential walk.
func VerifyCreditLimitedLog(l *trace.Log, released bool, s, workers int) error {
	return VerifyCreditLimited(logCursor(l, released), s)
}

// MinimalCreditLimitLog is MinimalCreditLimit over l: its released view
// when released is set, else every scheduled transfer.
//
// Deprecated: use MinimalCreditLimit with a cursor over l. workers is
// ignored; the scan is one sequential walk.
func MinimalCreditLimitLog(l *trace.Log, released bool, workers int) int {
	return MinimalCreditLimit(logCursor(l, released))
}

func logCursor(l *trace.Log, released bool) *trace.Cursor {
	if released {
		return l.ReleasedCursor()
	}
	return l.Cursor()
}

// VerifyTriangular checks the triangular barter mechanism of Section
// 3.3 with credit limit s: within each tick, transfers that participate
// in simultaneous 2-cycles (direct exchanges) or 3-cycles (u→v, v→w,
// w→u) settle instantly and cost no credit; every remaining transfer
// charges the sender's per-pair balance, which must stay within s.
//
// Each tick is settled by Settlement, whose greedy, first-appearance
// cancellation matches the enforceable handshake the paper sketches (a
// node agrees to a triangle before transmitting, so cycles are
// explicit, not found by an optimizer). The credit sweep runs in the
// same order, so the verdict and the reported violation are
// deterministic, not an artifact of map iteration.
func VerifyTriangular(cur *trace.Cursor, s int) error {
	if s < 1 {
		return fmt.Errorf("mechanism: credit limit %d must be >= 1", s)
	}
	var pairs pairTable
	var tick Settlement
	var touched []uint64 // this tick's charged pairs, charge order
	charge := func(u, v int32, c int) {
		pairs.book(u, v, int32(c))
		pk, _ := pairKey(u, v)
		touched = append(touched, pk)
	}
	cur.Only(trace.ColFrom | trace.ColTo)
	for cur.NextTick() {
		tick.Reset()
		touched = touched[:0]
		for cur.NextSpan() {
			sp := cur.Span()
			to := sp.To[:len(sp.From)]
			for j, u := range sp.From {
				tick.Add(int32(u), int32(to[j]))
			}
		}
		tick.Settle(charge)
		for _, pk := range touched {
			if n := int(pairs.get(pk)); n > s || -n > s {
				u, v := int32(pk>>32), int32(uint32(pk))
				if n < 0 {
					u, v = v, u
					n = -n
				}
				return &Violation{
					Tick: cur.Tick(), From: u, To: v,
					Reason: fmt.Sprintf("net non-cycle transfer %d exceeds credit limit %d", n, s),
				}
			}
		}
	}
	return nil
}

// Settlement is triangular barter's per-tick cycle rule: of one tick's
// simultaneous client-to-client transfers, those that close a 2-cycle
// (a direct exchange) or a 3-cycle (u→v, v→w, w→u) settle
// credit-free, and the rest are charged. Cancellation is greedy,
// 2-cycles first, then 3-cycles, over the tick's directed edges in
// first-appearance order, with a 3-cycle's third party w tried in
// ascending id; the outcome therefore depends only on the order the
// transfers were added. VerifyTriangular audits traces by this rule and
// the triangular scheduler charges its ledger by it.
//
// The zero value is an empty tick. Reset starts the next one and keeps
// the allocations.
type Settlement struct {
	count map[uint64]int // count[u<<32|v] = uncancelled u -> v transfers
	edges []uint64       // directed edges, first-appearance order
	// sorted holds the edges as v<<32 | w^signBit in ascending order, so
	// v's out-edges are one run in ascending (signed) w.
	sorted []uint64
}

// signBit flips a node id's sign so that unsigned order is signed order.
const signBit = 1 << 31

// Reset empties the tick.
func (st *Settlement) Reset() {
	clear(st.count)
	st.edges = st.edges[:0]
}

// Add adds one transfer from u to v to the tick. Server transfers are
// exempt and ignored.
func (st *Settlement) Add(u, v int32) {
	if u == 0 || v == 0 {
		return
	}
	if st.count == nil {
		st.count = make(map[uint64]int)
	}
	key := uint64(uint32(u))<<32 | uint64(uint32(v))
	if st.count[key] == 0 {
		st.edges = append(st.edges, key)
	}
	st.count[key]++
}

// Settle cancels the tick's 2-cycles, then its 3-cycles (longer cycles
// are never settled), then calls charge with each directed edge that
// has uncancelled transfers left, c of them, in first-appearance order.
func (st *Settlement) Settle(charge func(u, v int32, c int)) {
	// The cancellations step one cycle at a time: a doctored trace may
	// hold a self-transfer u -> u, which is its own reverse, so each step
	// takes two from it and it can end at -1, which is charged as is.
	count := st.count
	for _, key := range st.edges {
		rev := key<<32 | key>>32
		for count[key] > 0 && count[rev] > 0 {
			count[key]--
			count[rev]--
		}
	}
	st.sorted = st.sorted[:0]
	for _, key := range st.edges {
		st.sorted = append(st.sorted, key^signBit)
	}
	slices.Sort(st.sorted)
	for _, key := range st.edges {
		if count[key] == 0 {
			continue
		}
		u, v := key>>32, key&(1<<32-1)
		// v's out-edges v -> w, ascending w.
		first, _ := slices.BinarySearch(st.sorted, v<<32)
		for _, e := range st.sorted[first:] {
			if e>>32 != v {
				break
			}
			vw := e ^ signBit
			wu := vw<<32 | u
			for count[key] > 0 && count[vw] > 0 && count[wu] > 0 {
				count[key]--
				count[vw]--
				count[wu]--
			}
			if count[key] == 0 {
				break
			}
		}
	}
	for _, key := range st.edges {
		if c := count[key]; c != 0 {
			charge(int32(key>>32), int32(uint32(key)), c)
		}
	}
}
