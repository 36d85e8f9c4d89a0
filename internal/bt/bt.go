// Package bt implements a BitTorrent-style protocol on the asynchronous
// simulator — the comparison the paper reports as ongoing work in
// Section 4, where it finds BitTorrent "more than 30% worse than the
// optimal time" even with tuned parameters.
//
// The protocol follows the deployed BitTorrent mechanics the paper
// describes:
//
//   - a fixed peer set (the overlay graph);
//   - choking: each node uploads only to a bounded number of unchoked
//     peers — the reciprocating peers that delivered the most data in
//     the last choke window (tit-for-tat), recomputed periodically;
//   - one rotating optimistic unchoke that gives a random interested
//     choked peer a chance to bootstrap reciprocation;
//   - Rarest-First piece selection;
//   - the seed (node 0) has no download rates to reciprocate, so it
//     unchokes peers round-robin, spreading its upload capacity.
//
// The paper's critique — "a typical BitTorrent client almost always
// uploads to a certain minimum number of neighbors irrespective of the
// reciprocal download rate" — is exactly the optimistic unchoke this
// implementation models.
package bt

import (
	"cmp"
	"fmt"
	"slices"

	"barterdist/internal/asim"
	"barterdist/internal/graph"
	"barterdist/internal/swarm"
	"barterdist/internal/xrand"
)

// Options configures the protocol.
type Options struct {
	// Graph is the fixed peer set (required).
	Graph *graph.Graph
	// UnchokeSlots is the number of reciprocal unchoke slots per node,
	// excluding the optimistic slot. Default 3 (classic BitTorrent).
	UnchokeSlots int
	// ChokeInterval is the tit-for-tat recomputation period in time
	// units. Default 10 (classic: 10 seconds with 1-second blocks).
	ChokeInterval float64
	// OptimisticInterval is the optimistic-unchoke rotation period.
	// Default 30.
	OptimisticInterval float64
	// DownloadPorts mirrors asim.Config.DownloadPorts.
	DownloadPorts int
	// Seed drives all random choices.
	Seed uint64
}

// Protocol is the BitTorrent-style asim.Protocol.
type Protocol struct {
	opts Options
	rng  *xrand.Rand

	counts asim.BlockCounts // block replication counts (rarest-first)
	// recv[v][i] = blocks v received from its i-th neighbor during the
	// current choke window.
	recv [][]float64
	// unchoked[v] = neighbor indices currently unchoked by v.
	unchoked [][]int
	// optimistic[v] = neighbor index of v's optimistic unchoke, -1 none.
	optimistic []int
	// rr[v] = round-robin cursor over v's unchoke set.
	rr    []int
	ready bool

	// order is the neighbor-index buffer recomputeChokes ranks and
	// rotateOptimistic permutes, reused across nodes and windows.
	order []int
}

var (
	_ asim.Protocol   = (*Protocol)(nil)
	_ asim.FaultAware = (*Protocol)(nil)
)

// Validate checks the options without mutating them. Zero values with
// documented defaults (UnchokeSlots, ChokeInterval, OptimisticInterval)
// are accepted.
func (o *Options) Validate() error {
	if o.Graph == nil {
		return fmt.Errorf("bt: a peer graph is required")
	}
	if o.UnchokeSlots < 0 {
		return fmt.Errorf("bt: UnchokeSlots = %d, need >= 1", o.UnchokeSlots)
	}
	if o.ChokeInterval < 0 || o.OptimisticInterval < 0 {
		return fmt.Errorf("bt: intervals must be positive")
	}
	return nil
}

// New validates the options and returns the protocol.
func New(opts Options) (*Protocol, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.UnchokeSlots == 0 {
		opts.UnchokeSlots = 3
	}
	if opts.ChokeInterval == 0 {
		opts.ChokeInterval = 10
	}
	if opts.OptimisticInterval == 0 {
		opts.OptimisticInterval = 30
	}
	return &Protocol{opts: opts, rng: xrand.New(opts.Seed)}, nil
}

// Wakeups implements asim.Protocol: timer 0 is the choke recomputation,
// timer 1 the optimistic rotation.
func (p *Protocol) Wakeups() []float64 {
	return []float64{p.opts.ChokeInterval, p.opts.OptimisticInterval}
}

// Neighbors implements asim.Protocol.
func (p *Protocol) Neighbors(v int) []int32 { return p.opts.Graph.Neighbors(v) }

func (p *Protocol) ensure(s *asim.State) {
	if p.ready {
		return
	}
	n := s.N()
	p.counts.Size(s)
	p.recv = make([][]float64, n)
	p.unchoked = make([][]int, n)
	p.optimistic = make([]int, n)
	p.rr = make([]int, n)
	for v := 0; v < n; v++ {
		p.recv[v] = make([]float64, p.opts.Graph.Degree(v))
		p.optimistic[v] = -1
	}
	// Initial state: everything choked except a bootstrap optimistic
	// unchoke per node, so the first choke window has data to rank.
	for v := 0; v < n; v++ {
		p.rotateOptimistic(v, s)
	}
	p.ready = true
}

// OnDeliver implements asim.Protocol: credit the sender for tit-for-tat
// and update rarity statistics.
func (p *Protocol) OnDeliver(from, to, block int, s *asim.State) {
	p.ensure(s)
	p.counts.Deliver(block)
	// A scan of to's few neighbors: not every overlay sorts its lists
	// (Hypercube orders them by flipped bit).
	if i := slices.Index(p.opts.Graph.Neighbors(to), int32(from)); i >= 0 {
		p.recv[to][i]++
	}
}

// OnTimer implements asim.Protocol.
func (p *Protocol) OnTimer(idx int, s *asim.State) {
	p.ensure(s)
	switch idx {
	case 0:
		for v := 0; v < s.N(); v++ {
			if !s.Alive(v) {
				continue // crashed peers rebuild their sets on rejoin
			}
			p.recomputeChokes(v, s)
		}
	case 1:
		for v := 0; v < s.N(); v++ {
			if !s.Alive(v) {
				continue
			}
			p.rotateOptimistic(v, s)
		}
	}
}

// recomputeChokes re-ranks v's neighbors by data received in the last
// window and unchokes the top interested ones. The seed has nothing to
// reciprocate, so it rotates its unchoke set round-robin over interested
// peers instead.
func (p *Protocol) recomputeChokes(v int, s *asim.State) {
	nbrs := p.opts.Graph.Neighbors(v)
	if len(nbrs) == 0 {
		return
	}
	interested := func(w int32) bool {
		return s.Alive(int(w)) && swarm.Offers(s.Blocks(v), s.Blocks(int(w)), nil)
	}
	p.unchoked[v] = p.unchoked[v][:0]
	if v == 0 {
		// Seed policy: rotate uniformly over interested peers.
		for _, i := range p.perm(len(nbrs)) {
			if len(p.unchoked[v]) == p.opts.UnchokeSlots {
				break
			}
			if interested(nbrs[i]) {
				p.unchoked[v] = append(p.unchoked[v], i)
			}
		}
	} else {
		// Shuffle before the stable sort so ties break randomly; the
		// rank is by data received, most first.
		idx := p.perm(len(nbrs))
		recv := p.recv[v]
		slices.SortStableFunc(idx, func(a, b int) int {
			return cmp.Compare(recv[b], recv[a])
		})
		for _, i := range idx {
			if len(p.unchoked[v]) == p.opts.UnchokeSlots {
				break
			}
			if interested(nbrs[i]) {
				p.unchoked[v] = append(p.unchoked[v], i)
			}
		}
	}
	for i := range p.recv[v] {
		p.recv[v][i] = 0
	}
}

// rotateOptimistic picks a random interested neighbor outside the
// unchoke set.
func (p *Protocol) rotateOptimistic(v int, s *asim.State) {
	nbrs := p.opts.Graph.Neighbors(v)
	if len(nbrs) == 0 {
		return
	}
	inSet := func(i int) bool {
		for _, j := range p.unchoked[v] {
			if i == j {
				return true
			}
		}
		return false
	}
	p.optimistic[v] = -1
	for _, i := range p.perm(len(nbrs)) {
		if inSet(i) {
			continue
		}
		w := int(nbrs[i])
		if w == 0 || !s.Alive(w) {
			continue // never upload to the seed or a dead peer
		}
		if swarm.Offers(s.Blocks(v), s.Blocks(w), nil) || s.Blocks(v).Count() == 0 {
			p.optimistic[v] = i
			break
		}
	}
}

// perm returns a uniform permutation of [0, n) in the protocol's order
// buffer, valid until the next call.
func (p *Protocol) perm(n int) []int {
	if cap(p.order) < n {
		p.order = make([]int, n)
	}
	idx := p.order[:n]
	p.rng.PermInto(idx)
	return idx
}

// NextUpload implements asim.Protocol: serve the next unchoked,
// interested peer in round-robin order with its rarest needed block.
func (p *Protocol) NextUpload(u int, s *asim.State) (asim.Upload, bool) {
	p.ensure(s)
	nbrs := p.opts.Graph.Neighbors(u)
	candidates := p.unchoked[u]
	total := len(candidates)
	if p.optimistic[u] >= 0 {
		total++
	}
	if total == 0 {
		return asim.Upload{}, false
	}
	for step := 0; step < total; step++ {
		slot := (p.rr[u] + step) % total
		var i int
		if slot < len(candidates) {
			i = candidates[slot]
		} else {
			i = p.optimistic[u]
		}
		v := int(nbrs[i])
		if v == 0 || !s.Alive(v) {
			continue
		}
		if p.opts.DownloadPorts != asim.Unlimited && s.InFlightCount(v) >= p.opts.DownloadPorts {
			continue
		}
		if b := swarm.PickBlock(p.rng, s.Blocks(u), s.Blocks(v), s.Bound(v), p.counts.Rarity()); b >= 0 {
			p.rr[u] = (slot + 1) % total
			return asim.Upload{To: v, Block: b}, true
		}
	}
	return asim.Upload{}, false
}

// OnCrash implements asim.FaultAware: drop the victim's holdings from
// the rarity statistics. Its choke state is left in place — NextUpload
// and the choke timers already route around dead peers — and the recv
// credit it earned simply ages out at the next choke window.
func (p *Protocol) OnCrash(v int, s *asim.State) {
	p.ensure(s)
	p.counts.Leave(v, s)
}

// OnRejoin implements asim.FaultAware: the returning peer's holdings
// (none after a wipe) count again.
func (p *Protocol) OnRejoin(v int, _ bool, s *asim.State) {
	p.ensure(s)
	p.counts.Join(v, s)
	// The returning peer starts from a clean slate: everything choked
	// except a fresh optimistic unchoke, exactly like a cold start.
	p.unchoked[v] = p.unchoked[v][:0]
	for i := range p.recv[v] {
		p.recv[v][i] = 0
	}
	p.rotateOptimistic(v, s)
}

// OnLoss implements asim.FaultAware: the sender earns no tit-for-tat
// credit for a block that never verified, which OnDeliver not being
// called already guarantees.
func (p *Protocol) OnLoss(_, _, _ int, _ bool, _ *asim.State) {}
