package swarm

import (
	"fmt"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/bitset"
	"barterdist/internal/fault"
	"barterdist/internal/trace"
)

// Tally counts what became of a run's transfers. Drops is indexed by
// trace drop kind; the engines map it onto their Result counters.
type Tally struct {
	Useful       int // deliveries of a block the receiver lacked
	Drops        [trace.NumKinds]int
	HonestUseful int // useful deliveries to honest clients (adversarial runs)
	HonestWasted int // honest clients' slots wasted by adversary drops
}

// Core is one run's clock-independent state and the only writer of its
// Peers. The plans are nil when the run has no such adversity.
type Core struct {
	*Peers
	Fault *fault.Plan
	Adv   *adversary.Plan
	// Open is the open-system book; nil for closed-batch runs.
	Open *Book
	// Log lists the applied crash, rejoin, arrival, and departure events
	// in application order; it becomes the engine Result's FaultLog.
	Log   []fault.Event
	Tally Tally
}

// PlanConflicts lists why the plans cannot drive one n-node run (nil
// when they can). An open system needs capacity for one arrival, and it
// owns the liveness mask and the completion rule, so it excludes the
// fault and adversary plans.
func PlanConflicts(nodes int, fp *fault.Plan, adv *adversary.Plan, ap *arrival.Plan) []string {
	if ap == nil {
		return nil
	}
	var bad []string
	if nodes < 2 {
		bad = append(bad, "open-system mode needs Nodes >= 2 (capacity for at least one arrival)")
	}
	if fp != nil {
		bad = append(bad, "Arrivals cannot combine with Fault (open-system churn owns the liveness mask)")
	}
	if adv != nil {
		bad = append(bad, "Arrivals cannot combine with Adversary (open-system completion semantics differ)")
	}
	return bad
}

// New acquires the run's plans and builds the initial population: node 0
// holds the whole file and every client starts empty. Closed runs start
// with every client present, open runs (ap != nil) with the server
// alone; the liveness mask exists only when a plan can change it.
// occupancy asks the open-system book to keep the per-observation
// occupancy trajectory.
func New(nodes, blocks int, fp *fault.Plan, adv *adversary.Plan, ap *arrival.Plan, occupancy bool) (*Core, error) {
	p := &Peers{n: nodes, k: blocks, have: make([]*bitset.Set, nodes)}
	for v := range p.have {
		p.have[v] = bitset.New(blocks)
	}
	for b := 0; b < blocks; b++ {
		p.have[0].Add(b)
	}
	c := &Core{Peers: p, Fault: fp, Adv: adv}
	if fp != nil {
		if err := fp.Acquire(); err != nil {
			return nil, err
		}
		p.alive = make([]bool, nodes)
		for v := range p.alive {
			p.alive[v] = true
		}
		p.aliveClients = nodes - 1
	}
	if ap != nil {
		if err := ap.Acquire(); err != nil {
			return nil, err
		}
		p.alive = make([]bool, nodes)
		p.alive[0] = true
		c.Open = newBook(ap, nodes, blocks, occupancy)
	}
	if adv != nil {
		if adv.N() != nodes {
			return nil, fmt.Errorf("swarm: adversary plan built for %d nodes, run has %d", adv.N(), nodes)
		}
		if err := adv.Acquire(); err != nil {
			return nil, err
		}
		p.honest = make([]bool, nodes)
		for v := range p.honest {
			p.honest[v] = adv.Honest(v)
		}
		p.honestClients = nodes - 1 - adv.Count()
		p.aliveHonest = p.honestClients
	}
	return c, nil
}

func (c *Core) log(ev fault.Event) { c.Log = append(c.Log, ev) }

// Deliver lands block b at node v and reports whether the block was new
// and whether it completed v's file (the server never "completes").
func (c *Core) Deliver(v, b int) (useful, completed bool) {
	p := c.Peers
	if !p.have[v].Add(b) {
		return false, false
	}
	c.Tally.Useful++
	honest := p.honest != nil && p.honest[v]
	if honest {
		c.Tally.HonestUseful++
	}
	if v == 0 || !p.have[v].Full() {
		return true, false
	}
	p.complete++
	if honest {
		p.completeHonest++
	}
	return true, true
}

// Resolve rules on one transfer to node to. af is the sender's
// strategy verdict (adversary.Deliver for honest senders and runs
// without a plan): the adversary rules first — a block that was never
// sent cannot also be lost in the network — and only then does a lossy
// fault plan roll its dice. It counts the drop and returns its trace
// kind, or dropped=false when the block arrives intact.
func (c *Core) Resolve(to int, af adversary.Fate) (kind uint8, dropped bool) {
	switch af {
	case adversary.Deliver:
		if c.Fault == nil || !c.Fault.Lossy() {
			return 0, false
		}
		lost, corrupt := c.Fault.Drop()
		switch {
		case corrupt:
			kind = trace.KindFaultCorrupt
		case lost:
			kind = trace.KindFault
		default:
			return 0, false
		}
	case adversary.Refused:
		kind = trace.KindRefused
	case adversary.Stalled:
		kind = trace.KindStalled
	default:
		kind = trace.KindGarbage
	}
	c.Tally.Drops[kind]++
	if kind >= trace.KindRefused && c.honest[to] {
		c.Tally.HonestWasted++
	}
	return kind, true
}

// Corrupt reports whether a drop kind arrived but failed verification
// (a fault-layer corruption or a corrupter's garbage) rather than
// vanishing.
func Corrupt(kind uint8) bool {
	return kind == trace.KindFaultCorrupt || kind == trace.KindGarbage
}

// ByAdversary reports whether a drop kind was the sender's strategy,
// not the network.
func ByAdversary(kind uint8) bool { return kind >= trace.KindRefused }

// leave marks client v absent and drops it from the counters.
func (c *Core) leave(v int) {
	p := c.Peers
	full := p.have[v].Full()
	p.alive[v] = false
	p.aliveClients--
	if full {
		p.complete--
	}
	if p.honest != nil && p.honest[v] {
		p.aliveHonest--
		if full {
			p.completeHonest--
		}
	}
}

// PickVictim draws the next crash victim among the present clients, or
// -1 when nobody is left to kill.
func (c *Core) PickVictim() int {
	p := c.Peers
	return c.Fault.PickVictim(p.n,
		func(v int) bool { return p.alive[v] },
		func(v int) int { return p.have[v].Count() })
}

// Crash takes client v down at time now and logs it. When the fault
// plan brings crashed nodes back it returns the rejoin delay, and v
// counts as pending until Rejoin.
func (c *Core) Crash(v int, now float64) (delay float64, rejoins bool) {
	c.leave(v)
	c.log(fault.Event{Time: now, Node: int32(v), Kind: fault.Crash})
	delay, rejoins = c.Fault.Rejoins()
	if rejoins {
		c.pendingRejoin++
		if c.honest != nil && c.honest[v] {
			c.pendingRejoinHonest++
		}
	}
	return delay, rejoins
}

// Rejoin brings crashed client v back at time now, with an empty cache
// when wiped, and logs it.
func (c *Core) Rejoin(v int, now float64, wiped bool) {
	p := c.Peers
	p.alive[v] = true
	p.aliveClients++
	p.pendingRejoin--
	honest := p.honest != nil && p.honest[v]
	if honest {
		p.aliveHonest++
		p.pendingRejoinHonest--
	}
	if wiped {
		p.have[v].Clear()
	} else if p.have[v].Full() {
		p.complete++
		if honest {
			p.completeHonest++
		}
	}
	c.log(fault.Event{Time: now, Node: int32(v), Kind: fault.Rejoin, Wiped: wiped})
}
