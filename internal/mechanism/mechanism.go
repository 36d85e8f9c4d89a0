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
// Cycle cancellation is greedy — 2-cycles first, then 3-cycles — which
// matches the enforceable handshake the paper sketches (a node agrees to
// a triangle before transmitting, so cycles are explicit, not found by
// an optimizer). Cancellation and the credit sweep both run in the
// canonical first-appearance order of each tick's directed edges (with
// 3-cycle third parties tried in ascending node id), so the verdict and
// the reported violation are deterministic, not an artifact of map
// iteration.
func VerifyTriangular(cur *trace.Cursor, s int) error {
	if s < 1 {
		return fmt.Errorf("mechanism: credit limit %d must be >= 1", s)
	}
	var pairs pairTable
	count := make(map[uint64]int) // count[u<<32|v] = remaining uncancelled u -> v this tick
	outs := make(map[int32][]int32)
	var edges []uint64   // this tick's directed edges, first-appearance order
	var touched []uint64 // this tick's charged pairs, charge order
	var thirds []int32
	cur.Only(trace.ColFrom | trace.ColTo)
	for cur.NextTick() {
		t := cur.Tick()
		clear(count)
		clear(outs)
		edges = edges[:0]
		touched = touched[:0]
		for cur.NextSpan() {
			sp := cur.Span()
			to := sp.To[:len(sp.From)]
			for j, u := range sp.From {
				v := to[j]
				if u == 0 || v == 0 {
					continue
				}
				key := uint64(u)<<32 | uint64(v)
				if count[key] == 0 {
					edges = append(edges, key)
					outs[int32(u)] = append(outs[int32(u)], int32(v))
				}
				count[key]++
			}
		}
		dir := func(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }
		// Cancel 2-cycles.
		for _, key := range edges {
			u, v := int32(key>>32), int32(uint32(key))
			rev := dir(v, u)
			for count[key] > 0 && count[rev] > 0 {
				count[key]--
				count[rev]--
			}
		}
		// Cancel 3-cycles: for each remaining edge u -> v in order, try
		// third parties w (v's remaining out-neighbors) ascending.
		for _, key := range edges {
			u, v := int32(key>>32), int32(uint32(key))
			if count[key] == 0 {
				continue
			}
			thirds = append(thirds[:0], outs[v]...)
			slices.Sort(thirds)
			for _, w := range thirds {
				vw, wu := dir(v, w), dir(w, u)
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
		// Remaining transfers consume credit.
		for _, key := range edges {
			c := count[key]
			if c == 0 {
				continue
			}
			u, v := int32(key>>32), int32(uint32(key))
			pairs.book(u, v, int32(c))
			pk, _ := pairKey(u, v)
			touched = append(touched, pk)
		}
		for _, pk := range touched {
			if n := int(pairs.get(pk)); n > s || -n > s {
				u, v := int32(pk>>32), int32(uint32(pk))
				if n < 0 {
					u, v = v, u
					n = -n
				}
				return &Violation{
					Tick: t, From: u, To: v,
					Reason: fmt.Sprintf("net non-cycle transfer %d exceeds credit limit %d", n, s),
				}
			}
		}
	}
	return nil
}
