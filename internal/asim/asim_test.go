package asim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"barterdist/internal/analysis"
	"barterdist/internal/checkpoint"
	"barterdist/internal/graph"
	"barterdist/internal/xrand"
)

func TestConfigValidation(t *testing.T) {
	p := NewAsyncRandomized(nil, false, 1, 1)
	bad := []Config{
		{Nodes: 0, Blocks: 1},
		{Nodes: 2, Blocks: 0},
		{Nodes: 2, Blocks: 1, UploadRate: []float64{1}},
		{Nodes: 2, Blocks: 1, UploadRate: []float64{1, 0}},
		{Nodes: 2, Blocks: 1, UploadRate: []float64{1, math.Inf(1)}},
		{Nodes: 2, Blocks: 1, DownloadRate: []float64{1, 1, 1}},
		{Nodes: 2, Blocks: 1, DownloadPorts: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestConfigRejectsCheckpointWithoutInterval: a snapshot path with an
// interval below 1 would never write, so Validate rejects it.
func TestConfigRejectsCheckpointWithoutInterval(t *testing.T) {
	cfg := Config{Nodes: 4, Blocks: 2, Checkpoint: &checkpoint.Policy{Path: "run.ckpt", Every: -1}}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Every = -1") {
		t.Fatalf("Validate = %v, want the interval rejected", err)
	}
}

func TestSingleServerIsComplete(t *testing.T) {
	res, err := Run(Config{Nodes: 1, Blocks: 5}, NewAsyncRandomized(nil, false, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 0 {
		t.Fatalf("T = %v, want 0", res.CompletionTime)
	}
}

func TestUnitRatesMatchSynchronousScale(t *testing.T) {
	// With all rates 1 and one download port, durations are 1 time unit
	// per block — the async randomized algorithm should land in the same
	// ballpark as its synchronous sibling: near k - 1 + log2 n.
	const n, k = 64, 64
	res, err := Run(Config{Nodes: n, Blocks: k, DownloadPorts: 1},
		NewAsyncRandomized(nil, false, 1, 7))
	if err != nil {
		t.Fatal(err)
	}
	opt := float64(analysis.CooperativeLowerBound(n, k))
	if res.CompletionTime < opt {
		t.Fatalf("T = %v below the lower bound %v", res.CompletionTime, opt)
	}
	if res.CompletionTime > 1.6*opt {
		t.Fatalf("T = %v more than 60%% above optimal %v", res.CompletionTime, opt)
	}
	if res.Transfers != (n-1)*k {
		t.Fatalf("transfers = %d, want %d", res.Transfers, (n-1)*k)
	}
}

func TestHeterogeneousRatesStillComplete(t *testing.T) {
	// Half the clients upload at half speed — the asynchrony scenario of
	// Section 2.3.4. The run must complete, slower than homogeneous.
	const n, k = 32, 32
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = 1
		if i%2 == 1 {
			rates[i] = 0.5
		}
	}
	slow, err := Run(Config{Nodes: n, Blocks: k, UploadRate: rates, DownloadPorts: 1},
		NewAsyncRandomized(nil, false, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(Config{Nodes: n, Blocks: k, DownloadPorts: 1},
		NewAsyncRandomized(nil, false, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if slow.CompletionTime <= fast.CompletionTime {
		t.Errorf("heterogeneous run (T=%v) not slower than homogeneous (T=%v)",
			slow.CompletionTime, fast.CompletionTime)
	}
}

func TestRunsOnOverlayGraph(t *testing.T) {
	rng := xrand.New(5)
	g, err := graph.RandomRegular(32, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Nodes: 32, Blocks: 16, DownloadPorts: 1},
		NewAsyncRandomized(g, true, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime <= 0 {
		t.Fatal("no progress recorded")
	}
	for v := 1; v < 32; v++ {
		if res.ClientCompletion[v] <= 0 || res.ClientCompletion[v] > res.CompletionTime {
			t.Fatalf("client %d completion %v out of range", v, res.ClientCompletion[v])
		}
	}
}

func TestRarestFirstCompletes(t *testing.T) {
	res, err := Run(Config{Nodes: 32, Blocks: 32, DownloadPorts: 1},
		NewAsyncRandomized(nil, true, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime < float64(analysis.CooperativeLowerBound(32, 32)) {
		t.Fatal("impossible completion time")
	}
}

func TestDownloadPortsShareRate(t *testing.T) {
	// With 2 ports each carrying half the download rate, a seed-fed pair
	// of transfers takes 2 time units instead of 1; completion can only
	// get slower per transfer but parallelism can still help overall.
	res1, err := Run(Config{Nodes: 16, Blocks: 16, DownloadPorts: 1},
		NewAsyncRandomized(nil, false, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(Config{Nodes: 16, Blocks: 16, DownloadPorts: 2},
		NewAsyncRandomized(nil, false, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res1.CompletionTime <= 0 || res2.CompletionTime <= 0 {
		t.Fatal("no progress")
	}
}

// deadProtocol never uploads; the run must abort with ErrMaxTime.
type deadProtocol struct{}

func (deadProtocol) NextUpload(int, *State) (Upload, bool) { return Upload{}, false }
func (deadProtocol) Wakeups() []float64                    { return []float64{5} }
func (deadProtocol) OnTimer(int, *State)                   {}
func (deadProtocol) Neighbors(int) []int32                 { return nil }
func (deadProtocol) OnDeliver(int, int, int, *State)       {}

func TestDeadProtocolTimesOut(t *testing.T) {
	_, err := Run(Config{Nodes: 4, Blocks: 2, MaxTime: 50}, deadProtocol{})
	if !errors.Is(err, ErrMaxTime) {
		t.Fatalf("err = %v, want ErrMaxTime", err)
	}
}

// silentProtocol has no timers and never uploads: the queue drains.
type silentProtocol struct{ deadProtocol }

func (silentProtocol) Wakeups() []float64 { return nil }

func TestDrainedQueueReportsErrMaxTime(t *testing.T) {
	_, err := Run(Config{Nodes: 4, Blocks: 2}, silentProtocol{})
	if !errors.Is(err, ErrMaxTime) {
		t.Fatalf("err = %v, want ErrMaxTime", err)
	}
}

// cheatingProtocol tries to send a block the target already has.
type cheatingProtocol struct{ silentProtocol }

func (cheatingProtocol) NextUpload(u int, s *State) (Upload, bool) {
	if u != 0 {
		return Upload{}, false
	}
	return Upload{To: 1, Block: 0}, true // valid only the first time
}

func TestEngineValidatesUploads(t *testing.T) {
	// Block 0 lands at node 1; the protocol immediately re-offers it,
	// which the engine must reject as a redundant transfer.
	_, err := Run(Config{Nodes: 3, Blocks: 2}, cheatingProtocol{})
	if err == nil || errors.Is(err, ErrMaxTime) {
		t.Fatalf("err = %v, want validation error", err)
	}
}

func TestBadTimerPeriodRejected(t *testing.T) {
	_, err := Run(Config{Nodes: 2, Blocks: 1}, badTimerProtocol{})
	if err == nil {
		t.Fatal("non-positive timer period accepted")
	}
}

type badTimerProtocol struct{ silentProtocol }

func (badTimerProtocol) Wakeups() []float64 { return []float64{0} }

func TestAsyncDeterministicBySeed(t *testing.T) {
	cfg := Config{Nodes: 32, Blocks: 16, DownloadPorts: 1}
	a, err := Run(cfg, NewAsyncRandomized(nil, false, 1, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, NewAsyncRandomized(nil, false, 1, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.CompletionTime != b.CompletionTime || a.Transfers != b.Transfers {
		t.Fatal("same seed produced different async runs")
	}
}
