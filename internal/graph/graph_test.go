package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"barterdist/internal/xrand"
)

func degreesOK(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		seen := map[int32]struct{}{}
		for _, u := range g.Neighbors(v) {
			if int(u) == v {
				t.Fatalf("self-loop at node %d in %s", v, g.Name())
			}
			if _, dup := seen[u]; dup {
				t.Fatalf("duplicate edge %d-%d in %s", v, u, g.Name())
			}
			seen[u] = struct{}{}
			if !g.HasEdge(int(u), v) {
				t.Fatalf("edge %d-%d not symmetric in %s", v, u, g.Name())
			}
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	degreesOK(t, g)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if !g.Connected() {
		t.Fatal("complete graph reported disconnected")
	}
	if d := g.Diameter(); d != 1 {
		t.Fatalf("diameter = %d, want 1", d)
	}
}

func TestCompleteSingleNode(t *testing.T) {
	g := Complete(1)
	if g.Degree(0) != 0 || !g.Connected() {
		t.Fatal("K1 should be a connected single node")
	}
}

func TestChain(t *testing.T) {
	g := Chain(6)
	degreesOK(t, g)
	if g.Degree(0) != 1 || g.Degree(5) != 1 {
		t.Fatal("chain endpoints should have degree 1")
	}
	for v := 1; v < 5; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("interior degree(%d) = %d", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 5 {
		t.Fatalf("diameter = %d, want 5", d)
	}
}

func TestKaryTree(t *testing.T) {
	g := KaryTree(13, 3) // perfect 3-ary tree of depth 2
	degreesOK(t, g)
	if g.Degree(0) != 3 {
		t.Fatalf("root degree = %d, want 3", g.Degree(0))
	}
	// Nodes 1..3 are internal (1 parent + 3 children); 4..12 leaves.
	for v := 1; v <= 3; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("internal degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	for v := 4; v < 13; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf degree(%d) = %d, want 1", v, g.Degree(v))
		}
	}
	if !g.Connected() {
		t.Fatal("tree reported disconnected")
	}
}

func TestHypercube(t *testing.T) {
	for r := 0; r <= 6; r++ {
		g := Hypercube(r)
		degreesOK(t, g)
		if g.N() != 1<<uint(r) {
			t.Fatalf("r=%d: N = %d", r, g.N())
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != r {
				t.Fatalf("r=%d: degree(%d) = %d", r, v, g.Degree(v))
			}
		}
		if r >= 1 && !g.Connected() {
			t.Fatalf("r=%d hypercube disconnected", r)
		}
		if r >= 1 {
			if d := g.Diameter(); d != r {
				t.Fatalf("r=%d: diameter = %d", r, d)
			}
		}
	}
}

func TestHypercubeDimensionOrder(t *testing.T) {
	// Dimension 0 must flip the MOST significant bit (paper's convention).
	g := Hypercube(3)
	nbrs := g.Neighbors(0)
	if nbrs[0] != 4 || nbrs[1] != 2 || nbrs[2] != 1 {
		t.Fatalf("neighbors of 0 = %v, want [4 2 1]", nbrs)
	}
}

func TestPairedHypercubeAssignment(t *testing.T) {
	for n := 2; n <= 70; n++ {
		a, err := NewPairedHypercubeAssignment(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		verts := 1 << uint(a.R)
		if verts > n {
			t.Fatalf("n=%d: 2^r=%d exceeds n", n, verts)
		}
		if 2*verts <= n {
			t.Fatalf("n=%d: r=%d too small", n, a.R)
		}
		if got := a.NodesAt[0]; len(got) != 1 || got[0] != 0 {
			t.Fatalf("n=%d: server vertex hosts %v", n, got)
		}
		total := 0
		for v, nodes := range a.NodesAt {
			if v != 0 && (len(nodes) < 1 || len(nodes) > 2) {
				t.Fatalf("n=%d: vertex %d hosts %d nodes", n, v, len(nodes))
			}
			for _, node := range nodes {
				if a.VertexOf[node] != v {
					t.Fatalf("n=%d: VertexOf[%d] = %d, want %d", n, node, a.VertexOf[node], v)
				}
			}
			total += len(nodes)
		}
		if total != n {
			t.Fatalf("n=%d: assignment covers %d nodes", n, total)
		}
	}
}

func TestPairedHypercubeAssignmentErrors(t *testing.T) {
	if _, err := NewPairedHypercubeAssignment(1); err == nil {
		t.Fatal("n=1 should error")
	}
}

func TestPairedHypercubeGraph(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13, 16, 31, 32, 33, 50} {
		g, a, err := PairedHypercube(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		degreesOK(t, g)
		if !g.Connected() {
			t.Fatalf("n=%d paired hypercube disconnected", n)
		}
		// Degree bound from the paper: each node talks to at most the
		// nodes on its r incident vertex links (<= 2 each) plus its
		// vertex partner => degree <= 2r+1.
		for v := 0; v < n; v++ {
			if g.Degree(v) > 2*a.R+1 {
				t.Fatalf("n=%d: degree(%d) = %d > 2r+1 = %d", n, v, g.Degree(v), 2*a.R+1)
			}
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(42)
	for _, tc := range []struct{ n, d int }{
		{10, 3}, {100, 4}, {100, 20}, {51, 4}, {1000, 10},
	} {
		g, err := RandomRegular(tc.n, tc.d, rng)
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		degreesOK(t, g)
		for v := 0; v < tc.n; v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("n=%d d=%d: degree(%d) = %d", tc.n, tc.d, v, g.Degree(v))
			}
		}
		if tc.d >= 3 && !g.Connected() {
			// d>=3 random regular graphs are connected w.h.p.; with our
			// fixed seed this is deterministic.
			t.Fatalf("n=%d d=%d: disconnected", tc.n, tc.d)
		}
	}
}

func TestRandomRegularErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Fatal("odd n*d should error")
	}
	if _, err := RandomRegular(5, 5, rng); err == nil {
		t.Fatal("d >= n should error")
	}
	if _, err := RandomRegular(0, 0, rng); err == nil {
		t.Fatal("n=0 should error")
	}
}

func TestRandomRegularZeroDegree(t *testing.T) {
	g, err := RandomRegular(4, 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 0 {
			t.Fatal("0-regular graph has edges")
		}
	}
}

func TestCirculantFallback(t *testing.T) {
	// Dense case (d close to n) where pairing rejection is likely; the
	// fallback must still produce an exact d-regular simple graph.
	rng := xrand.New(7)
	g, err := circulantWithSwaps(20, 13, rng, "test")
	if err != nil {
		t.Fatal(err)
	}
	degreesOK(t, g)
	hist := map[int]int{}
	for v := 0; v < 20; v++ {
		hist[g.Degree(v)]++
	}
	if hist[13] != 20 {
		t.Fatalf("degree histogram %v, want all 13", hist)
	}
}

func TestCirculantOddDegreeOddN(t *testing.T) {
	if _, err := circulantWithSwaps(7, 3, xrand.New(1), "t"); err == nil {
		t.Fatal("odd-degree on odd n should error")
	}
}

func TestGNP(t *testing.T) {
	rng := xrand.New(3)
	g := GNP(50, 0.5, rng)
	degreesOK(t, g)
	// Mean degree should be near p*(n-1) = 24.5.
	if avg := g.AvgDegree(); avg < 18 || avg > 31 {
		t.Fatalf("GNP avg degree %.1f far from 24.5", avg)
	}
	empty := GNP(10, 0, rng)
	if empty.AvgDegree() != 0 {
		t.Fatal("p=0 graph has edges")
	}
	full := GNP(10, 1, rng)
	for v := 0; v < 10; v++ {
		if full.Degree(v) != 9 {
			t.Fatal("p=1 graph is not complete")
		}
	}
}

func TestConnectedDetectsDisconnection(t *testing.T) {
	b := newBuilder(4)
	b.addEdge(0, 1)
	b.addEdge(2, 3)
	g := b.build("two-components")
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter of disconnected graph should be -1")
	}
}

func TestEccentricityFrom(t *testing.T) {
	g := Chain(5)
	got := g.EccentricityFrom(0)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("distances = %v", got)
	}
}

func TestMaxDegree(t *testing.T) {
	g := KaryTree(10, 9)
	if g.MaxDegree() != 9 {
		t.Fatalf("MaxDegree = %d, want 9", g.MaxDegree())
	}
}

// TestQuickRandomRegularIsRegular: any valid (n, d) pair yields an exact
// d-regular simple graph.
func TestQuickRandomRegularIsRegular(t *testing.T) {
	rng := xrand.New(99)
	f := func(nRaw, dRaw uint8) bool {
		n := int(nRaw)%60 + 4
		d := int(dRaw) % n
		if n*d%2 != 0 {
			d-- // make parity valid
		}
		if d < 0 {
			d = 0
		}
		g, err := RandomRegular(n, d, rng)
		if err != nil {
			// Only the odd-circulant corner may error; pairing handles
			// everything else. Accept errors only when both parity
			// repair fails, which cannot happen here.
			return false
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != d {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, _ *rand.Rand) {
			args[0] = reflect.ValueOf(uint8(rng.Intn(256)))
			args[1] = reflect.ValueOf(uint8(rng.Intn(256)))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomRegular1000x20(b *testing.B) {
	rng := xrand.New(1)
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(1000, 20, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNeighborListsSortedAndSeedDeterministic locks in the reproducibility
// fix: adjacency built from edge maps must come out sorted, so that a
// graph built from a given seed is bit-identical in every process and
// seeded simulations on it replay exactly.
func TestNeighborListsSortedAndSeedDeterministic(t *testing.T) {
	build := func() *Graph {
		g, err := RandomRegular(64, 8, xrand.New(123))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1, g2 := build(), build()
	for v := 0; v < g1.N(); v++ {
		n1, n2 := g1.Neighbors(v), g2.Neighbors(v)
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("node %d: neighbor lists differ between identically seeded builds", v)
		}
		for i := 1; i < len(n1); i++ {
			if n1[i-1] >= n1[i] {
				t.Fatalf("node %d: neighbor list not strictly sorted: %v", v, n1)
			}
		}
	}
	// The map-accumulated constructors must be sorted too.
	for _, g := range []*Graph{Chain(10), KaryTree(13, 3), GNP(30, 0.4, xrand.New(7))} {
		for v := 0; v < g.N(); v++ {
			nbrs := g.Neighbors(v)
			for i := 1; i < len(nbrs); i++ {
				if nbrs[i-1] >= nbrs[i] {
					t.Fatalf("%s node %d: unsorted neighbors %v", g.Name(), v, nbrs)
				}
			}
		}
	}
}

// referenceRandomRegular is RandomRegular as it stood before the
// pairing walk stopped drawing into discarded matchings and the swap
// walk left its map edge set: a full Fisher–Yates shuffle of freshly
// filled stubs per attempt, pairs checked afterwards, and a
// map[[2]int32]struct{} edge set for the circulant swaps. It returns
// the adjacency, or nil for an error.
func referenceRandomRegular(n, d int, rng *xrand.Rand) [][]int32 {
	if n < 1 || d < 0 || d >= n || n*d%2 != 0 {
		return nil
	}
	if d == 0 {
		return make([][]int32, n)
	}
	const maxAttempts = 200
	stubs := make([]int, n*d)
	deg := make([]int32, n)
	nbr := make([]int32, n*d)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		rng.Shuffle(stubs)
		if adj, ok := referenceTryPairing(n, d, stubs, deg, nbr); ok {
			return adj
		}
	}
	return referenceCirculantWithSwaps(n, d, rng)
}

func referenceTryPairing(n, d int, stubs []int, deg, nbr []int32) ([][]int32, bool) {
	for i := range deg {
		deg[i] = 0
	}
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			return nil, false
		}
		su, sv := u, v
		if deg[sv] < deg[su] {
			su, sv = sv, su
		}
		for _, w := range nbr[su*d : su*d+int(deg[su])] {
			if w == int32(sv) {
				return nil, false
			}
		}
		nbr[u*d+int(deg[u])] = int32(v)
		deg[u]++
		nbr[v*d+int(deg[v])] = int32(u)
		deg[v]++
	}
	backing := append([]int32(nil), nbr...)
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		adj[v] = backing[v*d : v*d+int(deg[v])]
	}
	sortAdj(adj)
	return adj, true
}

func referenceCirculantWithSwaps(n, d int, rng *xrand.Rand) [][]int32 {
	edges := make(map[[2]int32]struct{})
	add := func(u, v int) {
		a, b := int32(u), int32(v)
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		edges[[2]int32{a, b}] = struct{}{}
	}
	for v := 0; v < n; v++ {
		for off := 1; off <= d/2; off++ {
			add(v, (v+off)%n)
		}
	}
	if d%2 == 1 {
		if n%2 != 0 {
			return nil
		}
		for v := 0; v < n/2; v++ {
			add(v, v+n/2)
		}
	}
	list := make([][2]int32, 0, len(edges))
	for e := range edges { //lint:ordered the list is sorted below before any swap reads it
		list = append(list, e)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i][0] != list[j][0] {
			return list[i][0] < list[j][0]
		}
		return list[i][1] < list[j][1]
	})
	for iter := 0; iter < 10*len(list); iter++ {
		i, j := rng.Intn(len(list)), rng.Intn(len(list))
		if i == j {
			continue
		}
		e1, e2 := list[i], list[j]
		a, b := e1[0], e2[1]
		c, dd := e2[0], e1[1]
		if a == b || c == dd {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if c > dd {
			c, dd = dd, c
		}
		n1, n2 := [2]int32{a, b}, [2]int32{c, dd}
		if n1 == n2 {
			continue
		}
		if _, dup := edges[n1]; dup {
			continue
		}
		if _, dup := edges[n2]; dup {
			continue
		}
		delete(edges, e1)
		delete(edges, e2)
		edges[n1] = struct{}{}
		edges[n2] = struct{}{}
		list[i], list[j] = n1, n2
	}
	adj := make([][]int32, n)
	for e := range edges { //lint:ordered sortAdj sorts every neighbor list below
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	sortAdj(adj)
	return adj
}

// TestRandomRegularMatchesReference holds RandomRegular to the reference
// construction above: the same adjacency and the same generator state
// afterwards, so every seeded run on a random-regular overlay, and every
// draw after the overlay is built, is unchanged. The shapes cover the
// pairing model where it succeeds (d <= 4), the circulant fallback at
// the experiments' degree 30 and at d = n-1, and odd d on even n.
func TestRandomRegularMatchesReference(t *testing.T) {
	shapes := [][2]int{
		{2, 1}, {4, 1}, {10, 2}, {7, 2}, {50, 2}, {10, 3}, {16, 3}, {40, 4}, {101, 4},
		{64, 30}, {300, 30}, {1024, 30},
		{8, 7}, {31, 30}, {32, 31},
		{20, 5}, {64, 9}, {12, 11}, {100, 15},
		{5, 0}, {1, 0},
	}
	for _, sh := range shapes {
		n, d := sh[0], sh[1]
		seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 9000 + 1024*31}
		if n*d > 10000 {
			seeds = seeds[len(seeds)-2:] // the big circulants cost ~0.1 s a build
		}
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("n=%d,d=%d,seed=%d", n, d, seed), func(t *testing.T) {
				ref := xrand.New(seed)
				want := referenceRandomRegular(n, d, ref)
				rng := xrand.New(seed)
				g, err := RandomRegular(n, d, rng)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					if got := g.Neighbors(v); !reflect.DeepEqual(append([]int32{}, got...), append([]int32{}, want[v]...)) {
						t.Fatalf("node %d: neighbors %v, reference %v", v, got, want[v])
					}
				}
				if got, want := rng.State(), ref.State(); got != want {
					t.Fatalf("generator state %#x after the build, reference %#x", got, want)
				}
			})
		}
	}
}
