package simulate

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"barterdist/internal/bitset"
	"barterdist/internal/fault"
	"barterdist/internal/trace"
)

// aliveChain is a fault-aware naive pipeline: the alive nodes, in id
// order, each forward their successor's first missing block. It is the
// in-package stand-in for a self-healing scheduler (the real ones live
// in internal/randomized and internal/schedule).
func aliveChain() Scheduler {
	return SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		prev := 0
		for v := 1; v < s.N(); v++ {
			if !s.Alive(v) {
				continue
			}
			if b := s.Blocks(prev).FirstDiff(s.Blocks(v)); b >= 0 {
				dst = append(dst, Transfer{From: int32(prev), To: int32(v), Block: int32(b)})
			}
			prev = v
		}
		return dst, nil
	})
}

func mustPlan(t *testing.T, o fault.Options) *fault.Plan {
	t.Helper()
	p, err := fault.NewPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNormalizeReportsAllInvalidFields(t *testing.T) {
	_, err := Run(Config{Nodes: -1, Blocks: 0, UploadCap: -2, ServerUploadCap: -4, DownloadCap: -3}, aliveChain())
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	for _, field := range []string{"Nodes", "Blocks", "UploadCap", "ServerUploadCap", "DownloadCap"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("error %q does not name invalid field %s", err, field)
		}
	}
	// A negative UploadCap must not be zero-defaulted into a silently
	// inconsistent pairing with an explicit ServerUploadCap.
	_, err = Run(Config{Nodes: 4, Blocks: 2, UploadCap: -1, ServerUploadCap: 3}, aliveChain())
	if err == nil || !strings.Contains(err.Error(), "UploadCap = -1") {
		t.Fatalf("negative UploadCap with explicit ServerUploadCap: got %v", err)
	}
}

func TestZeroRatePlanMatchesNilPlan(t *testing.T) {
	cfg := Config{Nodes: 9, Blocks: 6, RecordTrace: true}
	base, err := Run(cfg, naivePipeline())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = mustPlan(t, fault.Options{Seed: 123}) // all rates zero
	withPlan, err := Run(cfg, naivePipeline())
	if err != nil {
		t.Fatal(err)
	}
	if base.CompletionTime != withPlan.CompletionTime {
		t.Fatalf("completion differs: %d without plan, %d with zero-rate plan",
			base.CompletionTime, withPlan.CompletionTime)
	}
	if !reflect.DeepEqual(base.Trace, withPlan.Trace) {
		t.Fatal("traces differ under a zero-rate plan; the fault layer must be pay-for-what-you-use")
	}
	if !reflect.DeepEqual(base.ClientCompletion, withPlan.ClientCompletion) {
		t.Fatal("per-client completion differs under a zero-rate plan")
	}
	if withPlan.LostTransfers != 0 || withPlan.CorruptTransfers != 0 || len(withPlan.FaultLog) != 0 {
		t.Fatal("zero-rate plan reported fault activity")
	}
	if err := RunAudit(cfg, withPlan); err != nil {
		t.Fatalf("audit of zero-rate run: %v", err)
	}
}

func TestPermanentDeparturesExcludedFromCompletion(t *testing.T) {
	cfg := Config{Nodes: 10, Blocks: 8, RecordTrace: true,
		Fault: mustPlan(t, fault.Options{Seed: 4, CrashRate: 0.15, MaxCrashes: 3})}
	res, err := Run(cfg, aliveChain())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultLog) == 0 {
		t.Fatal("expected at least one crash at rate 0.15")
	}
	dead := 0
	for v := 1; v < cfg.Nodes; v++ {
		if !res.FinalAlive[v] {
			dead++
			if res.FinalHave[v].Full() {
				t.Errorf("departed node %d somehow finished", v)
			}
		} else if !res.FinalHave[v].Full() {
			t.Errorf("alive node %d incomplete at completion", v)
		}
	}
	if dead == 0 {
		t.Fatal("no node ended up dead despite crashes and no rejoins")
	}
	if err := RunAudit(cfg, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestWipedRejoinRedownloadsEverything(t *testing.T) {
	cfg := Config{Nodes: 8, Blocks: 10, RecordTrace: true,
		Fault: mustPlan(t, fault.Options{
			Seed: 9, CrashRate: 0.1, MaxCrashes: 2,
			RejoinDelay: 5, RejoinLosesBlocks: true,
		})}
	res, err := Run(cfg, aliveChain())
	if err != nil {
		t.Fatal(err)
	}
	sawWipe := false
	for _, ev := range res.FaultLog {
		if ev.Kind == fault.Rejoin && ev.Wiped {
			sawWipe = true
			v := int(ev.Node)
			if res.ClientCompletion[v] <= int(ev.Time) {
				t.Errorf("node %d completed at %d, before its wipe at %v",
					v, res.ClientCompletion[v], ev.Time)
			}
		}
	}
	if !sawWipe {
		t.Skip("seed produced no wiped rejoin; adjust seed") // should not happen with seed 9
	}
	for v := 1; v < cfg.Nodes; v++ {
		if res.FinalAlive != nil && !res.FinalAlive[v] {
			continue
		}
		if !res.FinalHave[v].Full() {
			t.Errorf("alive node %d incomplete", v)
		}
	}
	if err := RunAudit(cfg, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestLossIsRetriedAndAccounted(t *testing.T) {
	cfg := Config{Nodes: 6, Blocks: 12, RecordTrace: true,
		Fault: mustPlan(t, fault.Options{Seed: 21, LossRate: 0.2, CorruptRate: 0.1})}
	res, err := Run(cfg, aliveChain())
	if err != nil {
		t.Fatal(err)
	}
	if res.LostTransfers == 0 || res.CorruptTransfers == 0 {
		t.Fatalf("expected both loss channels to fire: lost %d corrupt %d",
			res.LostTransfers, res.CorruptTransfers)
	}
	if res.TotalTransfers != res.UsefulTransfers+res.LostTransfers+res.CorruptTransfers {
		t.Fatalf("accounting mismatch: total %d != useful %d + lost %d + corrupt %d",
			res.TotalTransfers, res.UsefulTransfers, res.LostTransfers, res.CorruptTransfers)
	}
	for v := 1; v < cfg.Nodes; v++ {
		if !res.FinalHave[v].Full() {
			t.Errorf("node %d incomplete despite retries", v)
		}
	}
	if err := RunAudit(cfg, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestAdversarialVictimKillsMostUseful(t *testing.T) {
	// In the chain, node 1 always holds the most blocks among clients, so
	// the adversarial policy must pick it first.
	cfg := Config{Nodes: 8, Blocks: 20, RecordTrace: true,
		Fault: mustPlan(t, fault.Options{
			Seed: 2, CrashRate: 0.2, MaxCrashes: 1, Victim: fault.VictimMostUseful,
		})}
	res, err := Run(cfg, aliveChain())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultLog) != 1 {
		t.Fatalf("expected exactly one crash, got %d events", len(res.FaultLog))
	}
	if got := res.FaultLog[0].Node; got != 1 {
		t.Fatalf("adversarial victim = node %d, want the fullest client (1)", got)
	}
	if err := RunAudit(cfg, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestTraceReplaysToFinalState is the foundation of RunAudit: a recorded
// fault-free trace, applied transfer by transfer to a fresh state, must
// land exactly on the FinalHave snapshot.
func TestTraceReplaysToFinalState(t *testing.T) {
	cfg := Config{Nodes: 11, Blocks: 7, RecordTrace: true}
	res, err := Run(cfg, naivePipeline())
	if err != nil {
		t.Fatal(err)
	}
	have := make([]*bitset.Set, cfg.Nodes)
	for v := range have {
		have[v] = bitset.New(cfg.Blocks)
	}
	for b := 0; b < cfg.Blocks; b++ {
		have[0].Add(b)
	}
	for _, ts := range res.Trace.Materialize() {
		for _, tr := range ts {
			have[tr.To].Add(int(tr.Block))
		}
	}
	for v := range have {
		if !have[v].Equal(res.FinalHave[v]) {
			t.Fatalf("node %d: replayed state differs from FinalHave", v)
		}
	}
	if err := RunAudit(cfg, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// cheatingScheduler teleports blocks: node 2 "sends" blocks it never
// received. The online engine must reject it outright.
func cheatingScheduler() Scheduler {
	return SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		if t == 1 {
			return append(dst, Transfer{From: 2, To: 1, Block: 0}), nil
		}
		return dst, nil
	})
}

func TestEngineRejectsCheatingSchedulerOnline(t *testing.T) {
	_, err := Run(Config{Nodes: 4, Blocks: 2}, cheatingScheduler())
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("engine accepted a store-and-forward violation: %v", err)
	}
}

// TestAuditCatchesCheatingScheduler replays the same cheat through a
// deliberately permissive engine (a hand-rolled loop with no
// validation, standing in for a buggy or malicious fork) and shows the
// post-hoc audit still catches it from the artifacts alone.
func TestAuditCatchesCheatingScheduler(t *testing.T) {
	cfg := Config{Nodes: 4, Blocks: 2, RecordTrace: true}
	sched := SchedulerFunc(func(t int, s *State, dst []Transfer) ([]Transfer, error) {
		// Tick 1: legit server upload. Tick 2: node 2 forges block 1 to
		// node 1 and node 3 without ever holding it; tick 3 finishes.
		switch t {
		case 1:
			return append(dst,
				Transfer{From: 0, To: 1, Block: 0},
			), nil
		case 2:
			return append(dst,
				Transfer{From: 2, To: 1, Block: 1},
				Transfer{From: 2, To: 3, Block: 1},
			), nil
		default:
			return append(dst,
				Transfer{From: 0, To: 2, Block: 0},
				Transfer{From: 1, To: 2, Block: 1},
				Transfer{From: 1, To: 3, Block: 0},
			), nil
		}
	})

	// Permissive replay: apply whatever the scheduler emits.
	have := make([]*bitset.Set, cfg.Nodes)
	for v := range have {
		have[v] = bitset.New(cfg.Blocks)
	}
	for b := 0; b < cfg.Blocks; b++ {
		have[0].Add(b)
	}
	res := &Result{ClientCompletion: make([]int, cfg.Nodes), Trace: trace.New(false)}
	st := &State{} // the forging scheduler never reads it
	complete := func() int {
		c := 0
		for v := 1; v < cfg.Nodes; v++ {
			if have[v].Full() {
				c++
			}
		}
		return c
	}
	for tick := 1; complete() < cfg.Nodes-1; tick++ {
		trs, err := sched.Tick(tick, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trs {
			if have[tr.To].Add(int(tr.Block)) {
				res.UsefulTransfers++
				if tr.To != 0 && have[tr.To].Full() {
					res.ClientCompletion[tr.To] = tick
				}
			}
			res.TotalTransfers++
		}
		res.Trace.AppendTick(trs, nil, nil)
		res.CompletionTime = tick
	}
	res.FinalHave = make([]*bitset.Set, cfg.Nodes)
	for v := range have {
		res.FinalHave[v] = have[v].Clone()
	}

	err := RunAudit(cfg, res)
	if err == nil {
		t.Fatal("audit passed a trace in which node 2 forged blocks it never held")
	}
	if !errors.Is(err, ErrAudit) {
		t.Fatalf("want ErrAudit, got %v", err)
	}
	if !strings.Contains(err.Error(), "does not hold") && !strings.Contains(err.Error(), "hold") {
		t.Fatalf("audit error should pinpoint the store-and-forward violation, got %v", err)
	}
}

func TestAuditCatchesDoctoredResults(t *testing.T) {
	cfg := Config{Nodes: 7, Blocks: 5, RecordTrace: true}
	pristine, err := Run(cfg, naivePipeline())
	if err != nil {
		t.Fatal(err)
	}
	if err := RunAudit(cfg, pristine); err != nil {
		t.Fatalf("pristine result failed audit: %v", err)
	}

	tamper := []struct {
		name string
		mut  func(r *Result)
	}{
		{"inflated useful count", func(r *Result) { r.UsefulTransfers++ }},
		{"understated total count", func(r *Result) { r.TotalTransfers-- }},
		{"claimed earlier completion", func(r *Result) {
			ticks := r.Trace.Materialize()
			r.Trace = trace.FromTicks(ticks[:len(ticks)-1], nil, nil, false)
		}},
		{"swapped block id", func(r *Result) {
			ticks := r.Trace.Materialize()
			ticks[1][0].Block = int32(cfg.Blocks - 1)
			r.Trace = trace.FromTicks(ticks, nil, nil, false)
		}},
		{"forged final snapshot", func(r *Result) {
			r.FinalHave[2] = bitset.New(cfg.Blocks)
		}},
		{"shifted client completion", func(r *Result) { r.ClientCompletion[3]++ }},
	}
	for _, tc := range tamper {
		fresh, err := Run(cfg, naivePipeline())
		if err != nil {
			t.Fatal(err)
		}
		tc.mut(fresh)
		if err := RunAudit(cfg, fresh); !errors.Is(err, ErrAudit) {
			t.Errorf("%s: audit verdict %v, want ErrAudit", tc.name, err)
		}
	}
}
