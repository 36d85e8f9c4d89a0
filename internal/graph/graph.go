// Package graph builds the overlay networks the paper's algorithms run on.
//
// Nodes are integers 0..n-1; by convention node 0 is the server. A Graph
// is a static undirected adjacency structure. Constructors cover every
// topology used in the paper's evaluation: the complete graph (Figures 3
// and 4), random regular graphs of a chosen degree (Figures 5–7), the
// hypercube and its paired generalization for arbitrary n (Section 2.3),
// plus trees and chains for the baseline schedules of Section 2.2.
package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"barterdist/internal/xrand"
)

// Graph is an undirected overlay network over nodes 0..N()-1.
// Neighbor lists are duplicate-free, never contain the node itself, and
// are sorted by every constructor but Hypercube, which lists them by
// flipped bit, highest first; a fixed order keeps seeded simulations
// reproducible across processes.
type Graph struct {
	adj  [][]int32
	name string
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// Name returns a human-readable description of the topology, used in
// experiment CSV output.
func (g *Graph) Name() string { return g.name }

// Degree returns the number of neighbors of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns node v's neighbor list. The caller must not modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// AvgDegree returns the mean degree.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return float64(total) / float64(g.N())
}

// HasEdge reports whether u and v are adjacent. O(degree).
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.adj[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// builder accumulates edges with deduplication.
type builder struct {
	n     int
	edges map[[2]int32]struct{}
}

func newBuilder(n int) *builder {
	return &builder{n: n, edges: make(map[[2]int32]struct{})}
}

func (b *builder) addEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	a, c := int32(u), int32(v)
	if a > c {
		a, c = c, a
	}
	b.edges[[2]int32{a, c}] = struct{}{}
}

func (b *builder) build(name string) *Graph {
	adj := make([][]int32, b.n)
	for e := range b.edges { //lint:ordered sortAdj sorts every neighbor list below
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	sortAdj(adj)
	return &Graph{adj: adj, name: name}
}

// sortAdj orders every neighbor list. Edge sets are accumulated in maps,
// whose iteration order varies between processes; sorting makes a graph
// built from a given seed bit-identical everywhere, which in turn keeps
// seeded simulation runs reproducible.
func sortAdj(adj [][]int32) {
	for _, nbrs := range adj {
		slices.Sort(nbrs)
	}
}

// Complete returns the complete graph on n nodes. For n in the thousands
// this materializes n(n-1)/2 edges; the randomized simulator special-cases
// complete graphs to avoid touching adjacency lists, but the explicit
// representation is still useful for small-n tests and verifiers.
func Complete(n int) *Graph {
	if n < 1 {
		panic("graph: Complete requires n >= 1")
	}
	adj := make([][]int32, n)
	for v := range adj {
		nbrs := make([]int32, 0, n-1)
		for u := 0; u < n; u++ {
			if u != v {
				nbrs = append(nbrs, int32(u))
			}
		}
		adj[v] = nbrs
	}
	return &Graph{adj: adj, name: fmt.Sprintf("complete(n=%d)", n)}
}

// Chain returns the path 0-1-2-...-n-1 used by the Pipeline baseline.
func Chain(n int) *Graph {
	if n < 1 {
		panic("graph: Chain requires n >= 1")
	}
	b := newBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.addEdge(v, v+1)
	}
	return b.build(fmt.Sprintf("chain(n=%d)", n))
}

// KaryTree returns a complete m-ary tree rooted at node 0, nodes numbered
// in breadth-first order, as used by the multicast-tree baseline.
func KaryTree(n, m int) *Graph {
	if n < 1 {
		panic("graph: KaryTree requires n >= 1")
	}
	if m < 1 {
		panic("graph: KaryTree requires m >= 1")
	}
	b := newBuilder(n)
	for v := 1; v < n; v++ {
		b.addEdge(v, (v-1)/m)
	}
	return b.build(fmt.Sprintf("kary(n=%d,m=%d)", n, m))
}

// Hypercube returns the r-dimensional hypercube on 2^r nodes: nodes are
// adjacent iff their IDs differ in exactly one bit. This is the overlay
// of the Binomial Pipeline (Section 2.3.2).
func Hypercube(r int) *Graph {
	if r < 0 || r > 30 {
		panic("graph: Hypercube dimension out of range [0,30]")
	}
	n := 1 << uint(r)
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		nbrs := make([]int32, r)
		for d := 0; d < r; d++ {
			nbrs[d] = int32(v ^ (1 << uint(r-1-d)))
		}
		adj[v] = nbrs
	}
	return &Graph{adj: adj, name: fmt.Sprintf("hypercube(r=%d)", r)}
}

// PairedHypercubeAssignment maps an arbitrary node population onto
// hypercube vertices per Section 2.3.3: choose the largest r with
// 2^r <= n (n = clients + server), give the server vertex 0 alone, and
// pack the N clients onto the 2^r - 1 non-zero vertices with one or two
// clients each.
type PairedHypercubeAssignment struct {
	// R is the hypercube dimension.
	R int
	// VertexOf[node] is the hypercube vertex hosting that node; node 0
	// (the server) is always vertex 0.
	VertexOf []int
	// NodesAt[vertex] lists the one or two nodes at each vertex.
	NodesAt [][]int
}

// NewPairedHypercubeAssignment packs n nodes (node 0 = server) onto the
// largest hypercube with 2^r <= n. It returns an error if n < 2 (there
// must be at least one client).
func NewPairedHypercubeAssignment(n int) (*PairedHypercubeAssignment, error) {
	if n < 2 {
		return nil, errors.New("graph: paired hypercube needs at least 2 nodes")
	}
	r := bits.Len(uint(n)) - 1 // largest r with 2^r <= n
	verts := 1 << uint(r)
	a := &PairedHypercubeAssignment{
		R:        r,
		VertexOf: make([]int, n),
		NodesAt:  make([][]int, verts),
	}
	a.NodesAt[0] = []int{0}
	// Clients 1..n-1 fill vertices 1..verts-1 round-robin: first one
	// client per vertex, then a second client per vertex. n <= 2^(r+1)-1
	// guarantees at most two per vertex... n < 2^(r+1) so the client
	// count N = n-1 <= 2^(r+1)-2 = 2*(verts-1), exactly the capacity.
	for c := 1; c < n; c++ {
		v := (c-1)%(verts-1) + 1
		a.VertexOf[c] = v
		a.NodesAt[v] = append(a.NodesAt[v], c)
	}
	return a, nil
}

// PairedHypercube returns the physical overlay induced by a paired
// hypercube assignment: nodes at adjacent vertices are connected, and the
// two nodes sharing a vertex are connected to each other. Per Section
// 2.3.3 each node's out-degree is at most r+1 while in-degree may reach
// 2r.
func PairedHypercube(n int) (*Graph, *PairedHypercubeAssignment, error) {
	a, err := NewPairedHypercubeAssignment(n)
	if err != nil {
		return nil, nil, err
	}
	b := newBuilder(n)
	verts := 1 << uint(a.R)
	for v := 0; v < verts; v++ {
		if nodes := a.NodesAt[v]; len(nodes) == 2 {
			b.addEdge(nodes[0], nodes[1])
		}
		for d := 0; d < a.R; d++ {
			u := v ^ (1 << uint(d))
			if u < v {
				continue // add each vertex pair once
			}
			for _, x := range a.NodesAt[v] {
				for _, y := range a.NodesAt[u] {
					b.addEdge(x, y)
				}
			}
		}
	}
	return b.build(fmt.Sprintf("paired-hypercube(n=%d,r=%d)", n, a.R)), a, nil
}

// RandomRegular returns a random d-regular simple graph on n nodes. For
// small degrees it uses the pairing (configuration) model with restarts:
// d*n half-edges ("stubs") are matched uniformly and a matching with a
// self-loop or duplicate edge is discarded. The probability that a
// matching is simple decays like exp(-(d²-1)/4), so for the moderate and
// large degrees of Figures 5-7 the constructor switches to a circulant
// d-regular graph randomized by 10·|E| degree-preserving double-edge
// swaps — a standard Markov-chain sampler whose mixing is more than
// sufficient for these experiments.
//
// n*d must be even and d < n.
func RandomRegular(n, d int, rng *xrand.Rand) (*Graph, error) {
	switch {
	case n < 1:
		return nil, errors.New("graph: RandomRegular requires n >= 1")
	case d < 0 || d >= n:
		return nil, fmt.Errorf("graph: degree %d must be in [0, n) with n=%d", d, n)
	case n*d%2 != 0:
		return nil, fmt.Errorf("graph: n*d = %d*%d must be even", n, d)
	}
	name := fmt.Sprintf("random-regular(n=%d,d=%d)", n, d)
	if d == 0 {
		return &Graph{adj: make([][]int32, n), name: name}, nil
	}
	const maxAttempts = 200
	// Every attempt starts from the same stubs: node v's d half-edges
	// are stubs v*d .. v*d+d-1.
	template := make([]int, n*d)
	for i := range template {
		template[i] = i / d
	}
	stubs := make([]int, n*d)
	// Arena shared by every attempt: deg[v] neighbors of v live at
	// nbr[v*d : v*d+deg[v]]. Rejection sampling discards the vast
	// majority of matchings, so the arena costs one memclr per attempt
	// instead of an allocation.
	deg := make([]int32, n)
	nbr := make([]int32, n*d)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		copy(stubs, template)
		if pairStubs(stubs, d, deg, nbr, rng) {
			// Success: snapshot the arena into the graph's own backing array.
			backing := make([]int32, n*d)
			copy(backing, nbr)
			adj := make([][]int32, n)
			for v := range adj {
				adj[v] = backing[v*d : v*d+int(deg[v])]
			}
			sortAdj(adj)
			return &Graph{adj: adj, name: name}, nil
		}
	}
	// Deterministic fallback: start from a circulant d-regular graph and
	// randomize it with double-edge swaps, which preserve regularity.
	return circulantWithSwaps(n, d, rng, name)
}

// pairStubs is one attempt of the pairing model: it shuffles stubs by
// xrand.Rand.Shuffle's descending Fisher–Yates walk and matches
// stubs[2m] with stubs[2m+1], adding each pair to the deg/nbr arena as
// soon as the walk has fixed both its stubs. At the first self-loop or
// duplicate edge it makes only the draws the rest of the shuffle would
// have made, so the generator ends where a full shuffle leaves it, and
// reports false. Whether a matching is simple does not depend on the
// order its pairs are checked in.
func pairStubs(stubs []int, d int, deg, nbr []int32, rng *xrand.Rand) bool {
	clear(deg)
	for i := len(stubs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
		if i&1 == 0 && !addPair(stubs[i], stubs[i+1], d, deg, nbr) {
			for i--; i > 0; i-- {
				rng.Intn(i + 1)
			}
			return false
		}
	}
	return addPair(stubs[0], stubs[1], d, deg, nbr)
}

// addPair adds edge u-v to the arena, or reports false if it is a
// self-loop or already present. Duplicate detection is a linear scan
// over the sparser endpoint's neighbors (adjacency is symmetric), which
// for the degrees where the pairing model is viable is faster than any
// hashing.
func addPair(u, v, d int, deg, nbr []int32) bool {
	if u == v {
		return false
	}
	su, sv := u, v
	if deg[sv] < deg[su] {
		su, sv = sv, su
	}
	for _, w := range nbr[su*d : su*d+int(deg[su])] {
		if w == int32(sv) {
			return false
		}
	}
	nbr[u*d+int(deg[u])] = int32(v)
	deg[u]++
	nbr[v*d+int(deg[v])] = int32(u)
	deg[v]++
	return true
}

// circulantWithSwaps builds the circulant graph where node v connects to
// v±1, v±2, ..., v±d/2 (plus the antipode if d is odd, requiring n even),
// then applies random degree-preserving double-edge swaps.
func circulantWithSwaps(n, d int, rng *xrand.Rand, name string) (*Graph, error) {
	if d%2 == 1 && n%2 != 0 {
		return nil, fmt.Errorf("graph: cannot build %d-regular graph on odd n=%d", d, n)
	}
	edges := newEdgeSet(n * d / 2)
	list := make([]uint64, 0, n*d/2)
	add := func(u, v int) {
		if k := edgeKey(int32(u), int32(v)); u != v && edges.add(k) {
			list = append(list, k)
		}
	}
	for v := 0; v < n; v++ {
		for off := 1; off <= d/2; off++ {
			add(v, (v+off)%n)
		}
	}
	if d%2 == 1 {
		for v := 0; v < n/2; v++ {
			add(v, v+n/2)
		}
	}
	// Canonical (low, high) order before the swap walk, which indexes
	// into the list.
	slices.Sort(list)
	// 10*|E| random double-edge swaps for mixing.
	for iter := 0; iter < 10*len(list); iter++ {
		i, j := rng.Intn(len(list)), rng.Intn(len(list))
		if i == j {
			continue
		}
		e1, e2 := list[i], list[j]
		// Swap to (e1.low, e2.high) and (e2.low, e1.high).
		a, b := int32(e1>>32), int32(uint32(e2))
		c, dd := int32(e2>>32), int32(uint32(e1))
		if a == b || c == dd {
			continue
		}
		n1, n2 := edgeKey(a, b), edgeKey(c, dd)
		if n1 == n2 || edges.has(n1) || edges.has(n2) {
			continue
		}
		edges.remove(e1)
		edges.remove(e2)
		edges.add(n1)
		edges.add(n2)
		list[i], list[j] = n1, n2
	}
	// The list holds exactly the edge set, each edge once.
	deg := make([]int, n)
	backing := make([]int32, n*d)
	for _, e := range list {
		a, b := int(e>>32), int(uint32(e))
		backing[a*d+deg[a]] = int32(b)
		deg[a]++
		backing[b*d+deg[b]] = int32(a)
		deg[b]++
	}
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = backing[v*d : (v+1)*d : (v+1)*d]
	}
	sortAdj(adj)
	return &Graph{adj: adj, name: name}, nil
}

// edgeKey packs the undirected edge a-b as low<<32 | high. A key is
// never 0: high > low >= 0.
func edgeKey(a, b int32) uint64 {
	return uint64(min(a, b))<<32 | uint64(max(a, b))
}

// edgeSet is an open-addressed set of edge keys: linear probing over a
// power-of-two table at most half full, 0 marking an empty slot,
// backward-shift deletion (no tombstones), and a multiplicative hash
// taken from the product's high bits.
type edgeSet struct {
	slots []uint64
	shift uint
}

// newEdgeSet returns a set sized for up to m keys.
func newEdgeSet(m int) *edgeSet {
	logSize := bits.Len(uint(2 * m))
	return &edgeSet{slots: make([]uint64, 1<<logSize), shift: uint(64 - logSize)}
}

func (s *edgeSet) home(k uint64) int { return int(k * 0x9e3779b97f4a7c15 >> s.shift) }

// has reports whether k is in the set.
func (s *edgeSet) has(k uint64) bool {
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// add inserts k and reports whether it was absent.
func (s *edgeSet) add(k uint64) bool {
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			return true
		}
	}
}

// remove deletes k if present. Each later key of the probe run moves
// back into the hole unless that would put it before its home slot, so
// every remaining key stays reachable from its home.
func (s *edgeSet) remove(k uint64) {
	mask := len(s.slots) - 1
	hole := s.home(k)
	for s.slots[hole] != k {
		if s.slots[hole] == 0 {
			return
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if h := s.home(s.slots[j]); (j-h)&mask >= (j-hole)&mask {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole] = 0
}

// GNP returns an Erdős–Rényi G(n, p) graph, used in tests exploring the
// randomized algorithm's sensitivity to irregular degree distributions.
func GNP(n int, p float64, rng *xrand.Rand) *Graph {
	if n < 1 {
		panic("graph: GNP requires n >= 1")
	}
	if p < 0 || p > 1 {
		panic("graph: GNP probability out of [0,1]")
	}
	b := newBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.addEdge(u, v)
			}
		}
	}
	return b.build(fmt.Sprintf("gnp(n=%d,p=%g)", n, p))
}

// Connected reports whether the graph is connected (vacuously true for
// n <= 1). Experiments reject disconnected overlays: a client with no
// path to the server can never complete.
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	queue := make([]int32, 0, n)
	queue = append(queue, 0)
	seen[0] = true
	visited := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				visited++
				queue = append(queue, u)
			}
		}
	}
	return visited == n
}

// Diameter returns the exact diameter via all-pairs BFS, or -1 if the
// graph is disconnected. O(n·m); intended for analysis of small graphs.
func (g *Graph) Diameter() int {
	n := g.N()
	if n == 0 {
		return -1
	}
	dist := make([]int, n)
	queue := make([]int32, 0, n)
	diameter := 0
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.adj[v] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}

// EccentricityFrom returns BFS distances from node s; unreachable nodes
// get -1.
func (g *Graph) EccentricityFrom(s int) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int32{int32(s)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}
