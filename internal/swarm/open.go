package swarm

import (
	"barterdist/internal/arrival"
	"barterdist/internal/fault"
)

// Book is the open-system bookkeeping of one run: the arrival plan
// position, the next unassigned node id, per-peer arrival times and
// selfish exit thresholds, the stability watchdog, and the aggregates
// that become the engine Result's Open.
//
// Open-system model: the node count is the *capacity* — an upper bound
// on cumulative arrivals, not a population present at time 0. Node 0
// is the persistent server; clients enter with fresh ids 1, 2, … in
// arrival order (ids are never reused), download, and leave according
// to the seed policy or their selfish early-exit draw. The liveness
// mask and the fault log are shared with the fault layer: an arrival
// looks to schedulers and protocols exactly like a wiped rejoin of a
// never-before-seen node, a departure exactly like a permanent crash,
// so every churn-aware scheduler works unmodified.
type Book struct {
	plan *arrival.Plan
	wd   *arrival.Watchdog

	nextID          int32     // next unassigned node id (1-based; n = pool exhausted)
	arrivedAt       []float64 // when node v entered (0 = never)
	exitAfter       []int32   // selfish exit threshold in blocks (0 = cooperative)
	departScheduled []bool

	departed   int
	earlyExits int
	peak       int
	oldest     int32   // smallest present incomplete id; advances monotonically
	occupancy  []int32 // per-observation trajectory; nil unless asked for
	// truncated records that the arrival stream was cut by the run's
	// time budget: the pool can then never exhaust, so a quiet swarm is
	// a budget truncation, not a drain.
	truncated bool
}

func newBook(plan *arrival.Plan, nodes, blocks int, occupancy bool) *Book {
	b := &Book{
		plan:            plan,
		wd:              arrival.NewWatchdog(plan.Options().WithWatchdogDefaults(blocks)),
		nextID:          1,
		oldest:          1,
		arrivedAt:       make([]float64, nodes),
		exitAfter:       make([]int32, nodes),
		departScheduled: make([]bool, nodes),
	}
	if occupancy {
		b.occupancy = make([]int32, 0, 1024)
	}
	return b
}

// NextArrival returns the pending arrival time, or ok=false once every
// node id has been handed out.
func (c *Core) NextArrival() (at float64, ok bool) {
	b := c.Open
	if int(b.nextID) >= c.n {
		return 0, false
	}
	return b.plan.NextArrival(), true
}

// TruncateArrivals records that the pending arrival falls beyond the
// run's time budget and will never be admitted.
func (c *Core) TruncateArrivals() { c.Open.truncated = true }

// ArrivalsTruncated reports whether TruncateArrivals cut the stream.
func (c *Core) ArrivalsTruncated() bool { return c.Open.truncated }

// Admit consumes the pending arrival and brings the next peer in at
// time now: a fresh id, an empty cache, and an exit behavior drawn from
// the plan. It logs the arrival and returns the new id.
func (c *Core) Admit(now float64) int {
	b := c.Open
	b.plan.TakeArrival()
	v := int(b.nextID)
	b.nextID++
	c.alive[v] = true
	c.aliveClients++
	b.arrivedAt[v] = now
	b.exitAfter[v] = int32(b.plan.ExitThreshold(c.k))
	c.log(fault.Event{Time: now, Node: int32(v), Kind: fault.Arrive})
	return v
}

// Depart removes peer v for good at time now and logs it. A peer that
// leaves without the whole file is an early exit.
func (c *Core) Depart(v int, now float64) {
	b := c.Open
	if !c.have[v].Full() {
		b.earlyExits++
	}
	b.departed++
	c.leave(v)
	c.log(fault.Event{Time: now, Node: int32(v), Kind: fault.Depart})
}

// DepartAfter applies the departure policy after a useful delivery to
// client v. A peer that just completed follows the seed policy: under
// SeedDepart it seeds for Linger more time units and leaves. A selfish
// peer that reached its exit threshold leaves at once. It returns the
// delay until v's departure, counted from the engine's next departure
// opportunity (the next tick boundary, or the delivery instant), and
// ok=false when v stays or its departure is already scheduled.
func (c *Core) DepartAfter(v int) (delay float64, ok bool) {
	b := c.Open
	if b.departScheduled[v] {
		return 0, false
	}
	switch have := c.have[v]; {
	case have.Full():
		opts := b.plan.Options()
		if opts.SeedPolicy != arrival.SeedDepart {
			return 0, false
		}
		delay = opts.Linger
	case b.exitAfter[v] > 0 && int32(have.Count()) >= b.exitAfter[v]:
	default:
		return 0, false
	}
	b.departScheduled[v] = true
	return delay, true
}

// Observe samples the robustness instrumentation at time now and
// returns a non-None reason the moment the watchdog trips.
func (c *Core) Observe(now float64) arrival.Reason {
	b := c.Open
	occ := c.aliveClients - c.complete
	if occ > b.peak {
		b.peak = occ
	}
	if b.occupancy != nil {
		b.occupancy = append(b.occupancy, int32(occ))
	}
	// The oldest present incomplete peer has the smallest id: ids are
	// assigned in arrival order, departures are permanent, and block
	// sets never shrink in open mode, so the pointer only advances.
	for b.oldest < b.nextID && (!c.alive[b.oldest] || c.have[b.oldest].Full()) {
		b.oldest++
	}
	age := 0.0
	if b.oldest < b.nextID {
		age = now - b.arrivedAt[b.oldest]
	}
	return b.wd.Observe(now, occ, age)
}

// Drained reports the ergodic end state: the arrival pool is exhausted
// (not cut by the budget) and no present peer is still downloading —
// lingering seeds may remain.
func (c *Core) Drained() bool {
	b := c.Open
	return int(b.nextID) == c.n && !b.truncated && c.complete == c.aliveClients
}

// Seal stamps the verdict and aggregates the open-run instrumentation.
// completedAt(v) is client v's most recent completion time (0 = never
// completed); arrivalTimes adds the per-node arrival times.
func (c *Core) Seal(v arrival.Verdict, reason arrival.Reason, completedAt func(v int) float64, arrivalTimes bool) *arrival.OpenResult {
	b := c.Open
	o := &arrival.OpenResult{
		Verdict:        v,
		Reason:         reason,
		Arrived:        int(b.nextID) - 1,
		Departed:       b.departed,
		EarlyExits:     b.earlyExits,
		PeakOccupancy:  b.peak,
		FinalOccupancy: c.aliveClients - c.complete,
		Occupancy:      b.occupancy,
	}
	var sum float64
	for u := 1; u < int(b.nextID); u++ {
		ct := completedAt(u)
		if ct == 0 {
			continue
		}
		o.Completed++
		s := ct - b.arrivedAt[u]
		sum += s
		if s > o.SojournMax {
			o.SojournMax = s
		}
	}
	if o.Completed > 0 {
		o.SojournMean = sum / float64(o.Completed)
	}
	if arrivalTimes {
		o.ArrivalTime = append([]float64(nil), b.arrivedAt...)
	}
	return o
}
