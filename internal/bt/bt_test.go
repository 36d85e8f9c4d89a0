package bt

import (
	"testing"

	"barterdist/internal/analysis"
	"barterdist/internal/asim"
	"barterdist/internal/graph"
	"barterdist/internal/xrand"
)

func peerGraph(t *testing.T, n, d int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("peer graph disconnected")
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing graph should error")
	}
	g := graph.Complete(4)
	if _, err := New(Options{Graph: g, UnchokeSlots: -1}); err == nil {
		t.Error("negative slots should error")
	}
	if _, err := New(Options{Graph: g, ChokeInterval: -1}); err == nil {
		t.Error("negative interval should error")
	}
	p, err := New(Options{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if p.opts.UnchokeSlots != 3 || p.opts.ChokeInterval != 10 || p.opts.OptimisticInterval != 30 {
		t.Errorf("defaults = %+v", p.opts)
	}
}

func TestBitTorrentCompletes(t *testing.T) {
	const n, k = 64, 64
	g := peerGraph(t, n, 12, 3)
	p, err := New(Options{Graph: g, DownloadPorts: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := asim.Run(asim.Config{Nodes: n, Blocks: k, DownloadPorts: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	opt := float64(analysis.CooperativeLowerBound(n, k))
	if res.CompletionTime < opt {
		t.Fatalf("T = %v below lower bound %v", res.CompletionTime, opt)
	}
	if res.Transfers != (n-1)*k {
		t.Fatalf("transfers = %d, want %d", res.Transfers, (n-1)*k)
	}
	t.Logf("BitTorrent: T=%.1f vs optimal %.0f (%.0f%% overhead)",
		res.CompletionTime, opt, 100*(res.CompletionTime-opt)/opt)
}

func TestBitTorrentSlowerThanUnchokedRandomized(t *testing.T) {
	// The paper's Section 4 finding: choking wastes capacity relative to
	// the free randomized algorithm; BitTorrent lands >30% above optimal
	// while the unconstrained randomized protocol stays close to it.
	const n, k = 64, 128
	g := peerGraph(t, n, 12, 7)

	p, err := New(Options{Graph: g, DownloadPorts: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	btRes, err := asim.Run(asim.Config{Nodes: n, Blocks: k, DownloadPorts: 1}, p)
	if err != nil {
		t.Fatal(err)
	}

	free := asim.NewAsyncRandomized(g, true, 1, 9)
	freeRes, err := asim.Run(asim.Config{Nodes: n, Blocks: k, DownloadPorts: 1}, free)
	if err != nil {
		t.Fatal(err)
	}

	if btRes.CompletionTime < freeRes.CompletionTime {
		t.Errorf("BitTorrent (T=%v) beat the unconstrained randomized protocol (T=%v)",
			btRes.CompletionTime, freeRes.CompletionTime)
	}
	opt := float64(analysis.CooperativeLowerBound(n, k))
	t.Logf("optimal %.0f | randomized %.1f (+%.0f%%) | bittorrent %.1f (+%.0f%%)",
		opt, freeRes.CompletionTime, 100*(freeRes.CompletionTime-opt)/opt,
		btRes.CompletionTime, 100*(btRes.CompletionTime-opt)/opt)
}

func TestSeedNeverReceives(t *testing.T) {
	const n, k = 32, 16
	g := peerGraph(t, n, 8, 11)
	p, err := New(Options{Graph: g, DownloadPorts: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := asim.Run(asim.Config{Nodes: n, Blocks: k, DownloadPorts: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	// (n-1)*k useful deliveries and none to the seed.
	if res.Transfers != (n-1)*k {
		t.Fatalf("transfers = %d, want %d", res.Transfers, (n-1)*k)
	}
	if res.ClientCompletion[0] != 0 {
		t.Fatal("seed should have no completion time")
	}
}

func TestUnchokeSlotsRespected(t *testing.T) {
	const n = 16
	g := graph.Complete(n)
	p, err := New(Options{Graph: g, UnchokeSlots: 2, DownloadPorts: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asim.Run(asim.Config{Nodes: n, Blocks: 8, DownloadPorts: 1}, p); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if len(p.unchoked[v]) > 2 {
			t.Fatalf("node %d has %d unchoked peers, cap 2", v, len(p.unchoked[v]))
		}
	}
}

func TestBitTorrentDeterministicBySeed(t *testing.T) {
	const n, k = 32, 32
	g := peerGraph(t, n, 8, 6)
	run := func() float64 {
		p, err := New(Options{Graph: g, DownloadPorts: 1, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		res, err := asim.Run(asim.Config{Nodes: n, Blocks: k, DownloadPorts: 1}, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.CompletionTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different T: %v vs %v", a, b)
	}
}

// allocProbe measures the allocations of a warm choke window and
// optimistic rotation over every node, then lets the run go on.
type allocProbe struct {
	*Protocol
	allocs  float64
	checked bool
}

func (a *allocProbe) OnTimer(idx int, s *asim.State) {
	if !a.checked {
		a.checked = true
		a.allocs = testing.AllocsPerRun(5, func() {
			a.Protocol.OnTimer(0, s)
			a.Protocol.OnTimer(1, s)
		})
	}
	a.Protocol.OnTimer(idx, s)
}

// TestChokeWindowAllocatesNothing checks that once every node's unchoke
// set and the protocol's order buffer have grown, a choke window and an
// optimistic rotation over the whole swarm allocate nothing.
func TestChokeWindowAllocatesNothing(t *testing.T) {
	const n, k = 64, 32
	p, err := New(Options{Graph: peerGraph(t, n, 12, 3), DownloadPorts: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	probe := &allocProbe{Protocol: p}
	if _, err := asim.Run(asim.Config{Nodes: n, Blocks: k, DownloadPorts: 1}, probe); err != nil {
		t.Fatal(err)
	}
	if !probe.checked {
		t.Fatal("no timer fired")
	}
	if probe.allocs != 0 {
		t.Fatalf("a warm choke window and rotation allocate %.1f times", probe.allocs)
	}
}
