package simulate

import (
	"errors"
	"strings"
	"testing"

	"barterdist/internal/checkpoint"
)

// naivePipeline sends block by block down the chain 0->1->...->n-1: node v
// forwards the newest block it holds to v+1 whenever v+1 lacks it.
func naivePipeline() Scheduler {
	return SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		for v := 0; v+1 < s.N(); v++ {
			b := s.Blocks(v).FirstDiff(s.Blocks(v + 1))
			if b >= 0 {
				dst = append(dst, Transfer{From: int32(v), To: int32(v + 1), Block: int32(b)})
			}
		}
		return dst, nil
	})
}

func TestPipelineCompletionTime(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{2, 1}, {2, 5}, {5, 1}, {4, 3}, {10, 7}, {33, 20},
	} {
		res, err := Run(Config{Nodes: tc.n, Blocks: tc.k}, naivePipeline())
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		// Pipeline: k ticks to drain the server + n-2 more hops for the
		// last block to reach the last client.
		want := tc.k + tc.n - 2
		if res.CompletionTime != want {
			t.Fatalf("n=%d k=%d: T = %d, want %d", tc.n, tc.k, res.CompletionTime, want)
		}
		if res.UsefulTransfers != (tc.n-1)*tc.k {
			t.Fatalf("n=%d k=%d: useful transfers = %d, want %d",
				tc.n, tc.k, res.UsefulTransfers, (tc.n-1)*tc.k)
		}
	}
}

func TestSingleNodeIsVacuouslyComplete(t *testing.T) {
	res, err := Run(Config{Nodes: 1, Blocks: 10}, naivePipeline())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 0 {
		t.Fatalf("T = %d, want 0", res.CompletionTime)
	}
}

func TestConfigValidation(t *testing.T) {
	ok := naivePipeline()
	for name, cfg := range map[string]Config{
		"zero nodes":        {Nodes: 0, Blocks: 1},
		"zero blocks":       {Nodes: 2, Blocks: 0},
		"negative upload":   {Nodes: 2, Blocks: 1, UploadCap: -1},
		"download < upload": {Nodes: 2, Blocks: 1, UploadCap: 2, DownloadCap: 1},
	} {
		if _, err := Run(cfg, ok); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestConfigRejectsCheckpointWithoutInterval: a snapshot path with an
// interval below 1 would never write, so Validate rejects it.
func TestConfigRejectsCheckpointWithoutInterval(t *testing.T) {
	cfg := Config{Nodes: 4, Blocks: 2, Checkpoint: &checkpoint.Policy{Path: "run.ckpt", Every: 0}}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Every = 0") {
		t.Fatalf("Validate = %v, want the interval rejected", err)
	}
}

func TestStoreAndForwardViolationDetected(t *testing.T) {
	// Client 1 tries to send a block it does not have.
	bad := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		return append(dst, Transfer{From: 1, To: 2, Block: 0}), nil
	})
	_, err := Run(Config{Nodes: 3, Blocks: 2}, bad)
	if err == nil || !strings.Contains(err.Error(), "store-and-forward") {
		t.Fatalf("err = %v, want store-and-forward violation", err)
	}
}

func TestSameTickRelayRejected(t *testing.T) {
	// Block arrives at node 1 in tick 1; relaying it in the SAME tick
	// must be rejected (it only becomes usable next tick).
	bad := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		dst = append(dst, Transfer{From: 0, To: 1, Block: 0})
		return append(dst, Transfer{From: 1, To: 2, Block: 0}), nil
	})
	_, err := Run(Config{Nodes: 3, Blocks: 1, DownloadCap: Unlimited}, bad)
	if err == nil || !strings.Contains(err.Error(), "store-and-forward") {
		t.Fatalf("err = %v, want store-and-forward violation", err)
	}
}

func TestUploadCapEnforced(t *testing.T) {
	bad := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		dst = append(dst, Transfer{From: 0, To: 1, Block: 0})
		return append(dst, Transfer{From: 0, To: 2, Block: 0}), nil
	})
	_, err := Run(Config{Nodes: 3, Blocks: 1}, bad)
	if err == nil || !strings.Contains(err.Error(), "upload cap") {
		t.Fatalf("err = %v, want upload cap violation", err)
	}
	// The same schedule is legal with UploadCap 2.
	res, err := Run(Config{Nodes: 3, Blocks: 1, UploadCap: 2, DownloadCap: 2}, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 1 {
		t.Fatalf("T = %d, want 1", res.CompletionTime)
	}
}

func TestDownloadCapEnforced(t *testing.T) {
	bad := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		switch t {
		case 1:
			dst = append(dst, Transfer{From: 0, To: 1, Block: 0})
		case 2:
			// Node 2 receives the same block from two senders at once.
			dst = append(dst, Transfer{From: 0, To: 2, Block: 0})
			dst = append(dst, Transfer{From: 1, To: 2, Block: 0})
		case 3:
			dst = append(dst, Transfer{From: 0, To: 1, Block: 1})
		case 4:
			dst = append(dst, Transfer{From: 0, To: 2, Block: 1})
		}
		return dst, nil
	})
	_, err := Run(Config{Nodes: 3, Blocks: 2, DownloadCap: 1}, bad)
	if err == nil || !strings.Contains(err.Error(), "download cap") {
		t.Fatalf("err = %v, want download cap violation", err)
	}
	if _, err := Run(Config{Nodes: 3, Blocks: 2, DownloadCap: 2}, bad); err != nil {
		t.Fatalf("DownloadCap=2 should allow two receives: %v", err)
	}
}

func TestUnlimitedDownloadCap(t *testing.T) {
	fanIn := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		switch t {
		case 1:
			dst = append(dst, Transfer{From: 0, To: 1, Block: 0})
		case 2:
			dst = append(dst, Transfer{From: 0, To: 2, Block: 1})
		default:
			// Both 0 and 2 send distinct blocks to 1 in one tick.
			dst = append(dst, Transfer{From: 0, To: 1, Block: 2})
			dst = append(dst, Transfer{From: 2, To: 1, Block: 1})
			dst = append(dst, Transfer{From: 1, To: 2, Block: 0})
		}
		return dst, nil
	})
	res, err := Run(Config{Nodes: 3, Blocks: 3, DownloadCap: Unlimited, MaxTicks: 10}, fanIn)
	if err == nil {
		_ = res
		return // completed without violation: what we wanted
	}
	if !errors.Is(err, ErrMaxTicks) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestInvalidTransferFields(t *testing.T) {
	cases := map[string]Transfer{
		"self transfer":      {From: 1, To: 1, Block: 0},
		"sender range":       {From: -1, To: 1, Block: 0},
		"receiver range":     {From: 0, To: 99, Block: 0},
		"block range":        {From: 0, To: 1, Block: 99},
		"negative block":     {From: 0, To: 1, Block: -1},
		"sender high range":  {From: 99, To: 1, Block: 0},
		"receiver neg range": {From: 0, To: -2, Block: 0},
	}
	for name, tr := range cases {
		bad := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
			return append(dst, tr), nil
		})
		if _, err := Run(Config{Nodes: 3, Blocks: 2}, bad); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestMaxTicksAbortsIdleScheduler(t *testing.T) {
	idle := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		return dst, nil
	})
	_, err := Run(Config{Nodes: 2, Blocks: 1, MaxTicks: 5}, idle)
	if !errors.Is(err, ErrMaxTicks) {
		t.Fatalf("err = %v, want ErrMaxTicks", err)
	}
}

func TestSchedulerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	failing := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		return nil, boom
	})
	_, err := Run(Config{Nodes: 2, Blocks: 1}, failing)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestTraceRecording(t *testing.T) {
	res, err := Run(Config{Nodes: 3, Blocks: 2, RecordTrace: true}, naivePipeline())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Ticks() != res.CompletionTime {
		t.Fatalf("trace has %d ticks, completion %d", res.Trace.Ticks(), res.CompletionTime)
	}
	total := 0
	for i := 0; i < res.Trace.Ticks(); i++ {
		total += res.Trace.TickLen(i)
		if res.Trace.TickLen(i) != res.UploadsPerTick[i] {
			t.Fatalf("tick %d: trace %d vs uploads %d", i+1, res.Trace.TickLen(i), res.UploadsPerTick[i])
		}
	}
	if total != res.TotalTransfers {
		t.Fatalf("trace total %d vs TotalTransfers %d", total, res.TotalTransfers)
	}
}

func TestClientCompletionTimes(t *testing.T) {
	res, err := Run(Config{Nodes: 4, Blocks: 3}, naivePipeline())
	if err != nil {
		t.Fatal(err)
	}
	// Chain: client v completes when the last block reaches it: k+v-1.
	for v := 1; v < 4; v++ {
		want := 3 + v - 1
		if res.ClientCompletion[v] != want {
			t.Fatalf("client %d completed at %d, want %d", v, res.ClientCompletion[v], want)
		}
	}
	if res.ClientCompletion[0] != 0 {
		t.Fatal("server completion should be 0")
	}
}

func TestStateAccessors(t *testing.T) {
	probe := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		if t == 1 {
			if s.N() != 3 || s.K() != 2 {
				return nil, errors.New("bad dimensions")
			}
			if !s.Has(0, 0) || !s.Has(0, 1) || s.Has(1, 0) {
				return nil, errors.New("bad initial ownership")
			}
			if s.CountOf(0) != 2 || s.CountOf(1) != 0 {
				return nil, errors.New("bad counts")
			}
			if s.ClientsComplete() != 0 || s.AllClientsComplete() {
				return nil, errors.New("bad completion state")
			}
			if s.Tick() != 0 {
				return nil, errors.New("tick should be 0 before first tick")
			}
		}
		return naivePipeline().Tick(t, s, dst)
	})
	if _, err := Run(Config{Nodes: 3, Blocks: 2}, probe); err != nil {
		t.Fatal(err)
	}
}

func TestEfficiency(t *testing.T) {
	res := &Result{CompletionTime: 10, UsefulTransfers: 40}
	if got := res.Efficiency(8); got != 0.5 {
		t.Fatalf("Efficiency = %v, want 0.5", got)
	}
	empty := &Result{}
	if empty.Efficiency(8) != 0 {
		t.Fatal("zero-run efficiency should be 0")
	}
}

func TestRedundantTransferCountedNotUseful(t *testing.T) {
	// Server sends block 0 to client 1 twice in consecutive ticks, then
	// finishes the job.
	sched := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		switch t {
		case 1, 2:
			dst = append(dst, Transfer{From: 0, To: 1, Block: 0})
		case 3:
			dst = append(dst, Transfer{From: 0, To: 1, Block: 1})
		}
		return dst, nil
	})
	res, err := Run(Config{Nodes: 2, Blocks: 2}, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTransfers != 3 || res.UsefulTransfers != 2 {
		t.Fatalf("total=%d useful=%d, want 3/2", res.TotalTransfers, res.UsefulTransfers)
	}
}
