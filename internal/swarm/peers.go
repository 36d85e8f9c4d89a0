// Package swarm is the clock-independent core both simulators drive:
// the peer population (who holds which blocks, who is present, who is
// honest, and the completion counters the stopping rules read), the
// fault and adversary fate of each transfer, the open-system book
// (arrivals, departures, the stability watchdog, sojourn statistics),
// and the checkpoint sections and audit checks over that state.
//
// The engines keep only their clocks. internal/simulate advances a tick
// counter and applies a tick's events at its start; internal/asim pops
// an event queue. Both hand this package a timestamp — an integral tick
// or a continuous time — and everything else ("is the run complete?",
// "what became of this transfer?", "has this open swarm drained?") is
// answered here once, for both.
package swarm

import "barterdist/internal/bitset"

// Peers is the population's read-only view: block ownership, liveness,
// honesty, and the completion counters. Both engines' State types embed
// it, so schedulers and protocols see one API; only a Core mutates it.
type Peers struct {
	n, k     int
	have     []*bitset.Set
	complete int // present clients (not the server) holding all k blocks

	// Liveness; nil/zero unless a fault or arrival plan can change it.
	alive         []bool
	aliveClients  int
	pendingRejoin int

	// Honesty; nil/zero without an adversary plan.
	honest              []bool
	honestClients       int
	completeHonest      int
	aliveHonest         int
	pendingRejoinHonest int
}

// N returns the node count (server included).
func (p *Peers) N() int { return p.n }

// K returns the block count.
func (p *Peers) K() int { return p.k }

// Has reports whether node v currently holds block b.
func (p *Peers) Has(v, b int) bool { return p.have[v].Has(b) }

// Blocks returns node v's block set. Callers must treat it as read-only;
// mutating it corrupts the simulation.
func (p *Peers) Blocks(v int) *bitset.Set { return p.have[v] }

// CountOf returns how many blocks node v holds.
func (p *Peers) CountOf(v int) int { return p.have[v].Count() }

// Alive reports whether node v is currently present. Without a fault or
// arrival plan every node always is.
func (p *Peers) Alive(v int) bool { return p.alive == nil || p.alive[v] }

// AliveClients returns the number of clients currently present (n-1
// without a fault or arrival plan).
func (p *Peers) AliveClients() int {
	if p.alive == nil {
		return p.n - 1
	}
	return p.aliveClients
}

// ClientsComplete returns the number of present clients holding the
// entire file.
func (p *Peers) ClientsComplete() int { return p.complete }

// Adversarial reports whether an adversary plan is active — the cue for
// defensive schedulers and protocols to build their quarantine tables.
func (p *Peers) Adversarial() bool { return p.honest != nil }

// Honest reports whether node v plays by the protocol. Without an
// adversary plan every node is honest.
func (p *Peers) Honest(v int) bool { return p.honest == nil || p.honest[v] }

// HonestClients returns the number of honest clients, present or not
// (n-1 without an adversary plan).
func (p *Peers) HonestClients() int {
	if p.honest == nil {
		return p.n - 1
	}
	return p.honestClients
}

// HonestClientsComplete returns the number of present honest clients
// holding the entire file (ClientsComplete without an adversary plan).
func (p *Peers) HonestClientsComplete() int {
	if p.honest == nil {
		return p.complete
	}
	return p.completeHonest
}

// AllClientsComplete reports whether dissemination has finished: every
// client that is still part of the system holds the whole file.
// Permanently departed nodes are excluded and nodes scheduled to rejoin
// still count as pending. Under an adversary plan only *honest* clients
// count — a free-rider that starves under barter must not hold the swarm
// hostage.
func (p *Peers) AllClientsComplete() bool {
	if p.honest != nil {
		if p.alive == nil {
			return p.completeHonest == p.honestClients
		}
		return p.completeHonest == p.aliveHonest && p.pendingRejoinHonest == 0
	}
	if p.alive == nil {
		return p.complete == p.n-1
	}
	return p.complete == p.aliveClients && p.pendingRejoin == 0
}

// Final returns copies of every node's block set and, when liveness is
// tracked, of the liveness mask — the ground truth an audit replays
// against.
func (p *Peers) Final() (have []*bitset.Set, alive []bool) {
	have = make([]*bitset.Set, p.n)
	for v := range have {
		have[v] = p.have[v].Clone()
	}
	if p.alive != nil {
		alive = append([]bool(nil), p.alive...)
	}
	return have, alive
}
