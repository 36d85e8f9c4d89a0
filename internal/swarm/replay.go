package swarm

import (
	"fmt"

	"barterdist/internal/arrival"
	"barterdist/internal/bitset"
	"barterdist/internal/fault"
)

// Replay is an auditor's re-derivation of a recorded run's population:
// block sets, liveness and completion times, rebuilt from the trace and
// the fault log. It shares no code with Core or Peers, so an audit stays
// an oracle independent of the engine it checks. T is the engine's
// clock: int ticks or float64 time.
//
// The engine's auditor decides when each event and delivery lands; it
// drives the replay through Transition, Apply and Deliver and then
// compares the end state with the Result through CheckOpen, Present and
// Final.
type Replay[T int | float64] struct {
	// Have, Completion and Alive are the replayed block sets, completion
	// times (0 = incomplete; the server's stays 0) and liveness.
	Have       []*bitset.Set
	Completion []T
	Alive      []bool

	open                 bool
	nextArrive           int // open runs: ids arrive in order
	departed, earlyExits int
}

// NewReplay starts the replay of an n-node, k-block run: the server
// holds every block, and every client is present unless the run is open.
func NewReplay[T int | float64](n, k int, open bool) *Replay[T] {
	r := &Replay[T]{
		Have:       make([]*bitset.Set, n),
		Completion: make([]T, n),
		Alive:      make([]bool, n),
		open:       open,
		nextArrive: 1,
	}
	for v := range r.Have {
		r.Have[v] = bitset.New(k)
		r.Alive[v] = v == 0 || !open
	}
	r.Have[0].Fill()
	return r
}

// Transition checks that fault-log event ev, whose node the caller has
// checked is a client, is a legal liveness change and makes it. Closed
// runs alternate crashes and rejoins; in open runs ids arrive in order
// and departures are permanent. Errors are prefixed with the engine's
// clock label (e.g. "tick ") and ev.Time.
func (r *Replay[T]) Transition(label string, ev fault.Event) error {
	v := int(ev.Node)
	switch ev.Kind {
	case fault.Crash:
		if r.open {
			return eventErr(label, ev, "crash event in an open-system run")
		}
		if !r.Alive[v] {
			return eventErr(label, ev, "node %d crashes while already dead", v)
		}
		r.Alive[v] = false
	case fault.Rejoin:
		if r.open {
			return eventErr(label, ev, "rejoin event in an open-system run")
		}
		if r.Alive[v] {
			return eventErr(label, ev, "node %d rejoins while alive", v)
		}
		r.Alive[v] = true
	case fault.Arrive:
		if !r.open {
			return eventErr(label, ev, "arrival event in a closed-system run")
		}
		if v != r.nextArrive {
			return eventErr(label, ev, "node %d arrives out of order (expected %d)", v, r.nextArrive)
		}
		r.nextArrive++
		r.Alive[v] = true
	case fault.Depart:
		if !r.open {
			return eventErr(label, ev, "departure event in a closed-system run")
		}
		if !r.Alive[v] {
			return eventErr(label, ev, "node %d departs while absent", v)
		}
		r.Alive[v] = false
		r.departed++
	default:
		return fmt.Errorf("fault log: unknown event kind %d", uint8(ev.Kind))
	}
	return nil
}

func eventErr(label string, ev fault.Event, format string, args ...any) error {
	return fmt.Errorf("%s%v: %s", label, ev.Time, fmt.Sprintf(format, args...))
}

// Apply makes event ev's change to the block sets, at the point of the
// caller's clock where ev takes effect: a wiped rejoin empties the node
// and clears its completion, and a departure short of the whole file is
// an early exit. It reports whether ev wiped the node.
func (r *Replay[T]) Apply(ev fault.Event) (wiped bool) {
	v := int(ev.Node)
	switch {
	case ev.Kind == fault.Rejoin && ev.Wiped:
		r.Have[v].Clear()
		r.Completion[v] = 0
		return true
	case ev.Kind == fault.Depart && !r.Have[v].Full():
		r.earlyExits++
	}
	return false
}

// Deliver lands block b at node v at time at and reports whether v
// lacked it. A client that completes its set is stamped with at; the
// server, which holds every block from the start, never is.
func (r *Replay[T]) Deliver(v, b int, at T) bool {
	h := r.Have[v]
	if !h.Add(b) {
		return false
	}
	if h.Full() {
		r.Completion[v] = at
	}
	return true
}

// Present counts the present clients and how many of them hold the
// whole file; a non-nil keep restricts both to the clients it marks.
func (r *Replay[T]) Present(keep []bool) (present, complete int) {
	for v := 1; v < len(r.Alive); v++ {
		if r.Alive[v] && (keep == nil || keep[v]) {
			present++
			if r.Have[v].Full() {
				complete++
			}
		}
	}
	return present, complete
}

// CheckOpen checks an open run's recorded verdict and counters against
// the replay. Drained requires an exhausted pool and no peer
// mid-download; Unstable is a bounded truncation with no completion
// requirement. Either way every peer that entered must be accounted for
// by the starvation identity
//
//	Arrived = Completed + EarlyExits + FinalOccupancy
//
// so a run that silently loses a peer fails even when every
// transfer-level invariant holds.
func (r *Replay[T]) CheckOpen(o *arrival.OpenResult) error {
	arrived := r.nextArrive - 1
	present, complete := r.Present(nil)
	switch o.Verdict {
	case arrival.VerdictDrained:
		if n := len(r.Alive); arrived != n-1 {
			return fmt.Errorf("drained verdict with %d/%d arrivals replayed", arrived, n-1)
		}
		if complete != present {
			return fmt.Errorf("drained verdict but %d/%d present clients complete", complete, present)
		}
	case arrival.VerdictUnstable:
	default:
		return fmt.Errorf("open result carries verdict %v", o.Verdict)
	}
	if o.Arrived != arrived || o.Departed != r.departed || o.EarlyExits != r.earlyExits {
		return fmt.Errorf("replay counts %d arrived / %d departed / %d early exits, result reports %d / %d / %d",
			arrived, r.departed, r.earlyExits, o.Arrived, o.Departed, o.EarlyExits)
	}
	completed := 0
	for _, at := range r.Completion[1:] {
		if at != 0 {
			completed++
		}
	}
	if o.Completed != completed {
		return fmt.Errorf("replay counts %d completions, open result reports %d", completed, o.Completed)
	}
	if occ := present - complete; o.FinalOccupancy != occ {
		return fmt.Errorf("replay leaves %d peers mid-download, open result reports %d", occ, o.FinalOccupancy)
	}
	if o.Arrived != o.Completed+o.EarlyExits+o.FinalOccupancy {
		return fmt.Errorf("open run starves silently: %d arrived != %d completed + %d early exits + %d still present",
			o.Arrived, o.Completed, o.EarlyExits, o.FinalOccupancy)
	}
	return nil
}

// Final compares the replay's end state with the recorded one: every
// node's block set and completion, in ascending node order, then the
// liveness mask when one was recorded. unit names the engine's
// completion clock ("tick" or "time") in the error.
func (r *Replay[T]) Final(unit string, have []*bitset.Set, completion []T, alive []bool) error {
	for v := range r.Have {
		if !r.Have[v].Equal(have[v]) {
			return fmt.Errorf("node %d final block set differs from recorded snapshot", v)
		}
		if r.Completion[v] != completion[v] {
			return fmt.Errorf("node %d completion %s: replay %v, result %v", v, unit, r.Completion[v], completion[v])
		}
	}
	for v, a := range alive {
		if r.Alive[v] != a {
			return fmt.Errorf("node %d final liveness: replay %v, result %v", v, r.Alive[v], a)
		}
	}
	return nil
}
