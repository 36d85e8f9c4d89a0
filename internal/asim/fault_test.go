package asim

import (
	"errors"
	"math"
	"testing"

	"barterdist/internal/bitset"
	"barterdist/internal/fault"
)

func mustPlan(t *testing.T, o fault.Options) *fault.Plan {
	t.Helper()
	p, err := fault.NewPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestZeroRatePlanMatchesNilPlan pins the pay-for-what-you-use
// contract: attaching an all-zero fault plan must reproduce the
// reliable engine byte for byte.
func TestZeroRatePlanMatchesNilPlan(t *testing.T) {
	run := func(withPlan bool) *Result {
		cfg := Config{Nodes: 20, Blocks: 12, DownloadPorts: 1, RecordTrace: true}
		if withPlan {
			cfg.Fault = mustPlan(t, fault.Options{Seed: 5})
		}
		res, err := Run(cfg, NewAsyncRandomized(nil, false, 1, 11))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, planned := run(false), run(true)
	if base.CompletionTime != planned.CompletionTime {
		t.Fatalf("completion %v with nil plan vs %v with zero-rate plan",
			base.CompletionTime, planned.CompletionTime)
	}
	if len(base.Trace) != len(planned.Trace) {
		t.Fatalf("trace length %d vs %d", len(base.Trace), len(planned.Trace))
	}
	for i := range base.Trace {
		if base.Trace[i] != planned.Trace[i] {
			t.Fatalf("trace record %d differs: %+v vs %+v", i, base.Trace[i], planned.Trace[i])
		}
	}
	if planned.Lost != 0 || planned.Corrupt != 0 || len(planned.FaultLog) != 0 {
		t.Fatalf("zero-rate plan produced fault activity: %d lost, %d corrupt, %d events",
			planned.Lost, planned.Corrupt, len(planned.FaultLog))
	}
}

// TestChurnRunCompletesAndAudits drives the async engine through
// crashes, wiped rejoins, and transfer loss; the run must complete for
// the surviving clients and replay cleanly through RunAudit. The audit
// re-derives port accounting, so a crash teardown that failed to
// restore a serial upload port or download port would surface here.
func TestChurnRunCompletesAndAudits(t *testing.T) {
	cfg := Config{Nodes: 24, Blocks: 16, DownloadPorts: 1, RecordTrace: true,
		Fault: mustPlan(t, fault.Options{
			Seed:              17,
			CrashRate:         0.05,
			MaxCrashes:        4,
			RejoinDelay:       6,
			RejoinLosesBlocks: true,
			LossRate:          0.05,
		})}
	res, err := Run(cfg, NewAsyncRandomized(nil, false, 1, 13))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultLog) == 0 {
		t.Fatal("seed produced no fault events; pick a livelier seed")
	}
	if res.Lost == 0 {
		t.Fatal("seed produced no lost transfers; pick a livelier seed")
	}
	for v := 1; v < cfg.Nodes; v++ {
		if res.FinalAlive[v] && res.FinalHave[v].Count() != cfg.Blocks {
			t.Fatalf("alive client %d finished with %d/%d blocks",
				v, res.FinalHave[v].Count(), cfg.Blocks)
		}
	}
	cfg.Fault = nil
	if err := RunAudit(cfg, res); err != nil {
		t.Fatalf("audit of churn run: %v", err)
	}
}

// TestTraceReplaysToFinalState replays a fault-free recorded trace by
// hand and checks it reconstructs exactly the engine's final state —
// the recorded artifacts are a complete account of the run.
func TestTraceReplaysToFinalState(t *testing.T) {
	const n, k = 16, 10
	res, err := Run(Config{Nodes: n, Blocks: k, DownloadPorts: 1, RecordTrace: true},
		NewAsyncRandomized(nil, false, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	have := make([]*bitset.Set, n)
	for v := range have {
		have[v] = bitset.New(k)
	}
	for b := 0; b < k; b++ {
		have[0].Add(b)
	}
	last := 0.0
	for i, tr := range res.Trace {
		if tr.End < last {
			t.Fatalf("trace record %d out of End order", i)
		}
		last = tr.End
		if tr.Lost {
			continue
		}
		if !have[tr.From].Has(int(tr.Block)) {
			t.Fatalf("record %d: sender %d forwarded block %d it never held", i, tr.From, tr.Block)
		}
		have[tr.To].Add(int(tr.Block))
	}
	for v := 0; v < n; v++ {
		if !have[v].Equal(res.FinalHave[v]) {
			t.Fatalf("replayed state of node %d does not match FinalHave", v)
		}
	}
	if err := RunAudit(Config{Nodes: n, Blocks: k, DownloadPorts: 1, RecordTrace: true}, res); err != nil {
		t.Fatalf("audit of fault-free run: %v", err)
	}
}

// TestAuditCatchesDoctoredTrace tampers with genuine artifacts in ways
// an honest engine can never produce; every tamper must be caught.
func TestAuditCatchesDoctoredTrace(t *testing.T) {
	cfg := Config{Nodes: 12, Blocks: 8, DownloadPorts: 1, RecordTrace: true}
	fresh := func() *Result {
		res, err := Run(cfg, NewAsyncRandomized(nil, false, 1, 9))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cases := []struct {
		name   string
		tamper func(*Result)
	}{
		{"inflated transfer count", func(r *Result) { r.Transfers++ }},
		{"truncated trace", func(r *Result) { r.Trace = r.Trace[:len(r.Trace)-1] }},
		{"forged sender", func(r *Result) {
			// Claim the last delivery came from a node that cannot have
			// held the block at that time: the receiver itself.
			tr := &r.Trace[len(r.Trace)-1]
			tr.From = tr.To
		}},
		{"overlapping upload", func(r *Result) {
			// Stretch one transfer so its sender's serial port overlaps.
			for i := range r.Trace {
				for j := i + 1; j < len(r.Trace); j++ {
					if r.Trace[j].From == r.Trace[i].From {
						r.Trace[i].End = r.Trace[j].Start + (r.Trace[j].End-r.Trace[j].Start)/2
						r.Trace[i].Start = r.Trace[i].End - 1
						return
					}
				}
			}
			t.Fatal("no sender with two transfers in trace")
		}},
		{"forged final state", func(r *Result) { r.FinalHave[3].Remove(2) }},
		{"shifted client completion", func(r *Result) { r.ClientCompletion[5] += 0.25 }},
		{"understated completion time", func(r *Result) { r.CompletionTime /= 2 }},
		// Fault logs on a closed, fault-free run: a NaN-timed event
		// compares false against every neighbor, so only an explicit
		// time check keeps it from slipping past the order check.
		{"NaN-timed fault event", func(r *Result) {
			r.FaultLog = []fault.Event{{Time: math.NaN(), Node: 3, Kind: fault.Crash}}
		}},
		{"fault log back in time", func(r *Result) {
			r.FaultLog = []fault.Event{{Time: 2, Node: 3, Kind: fault.Crash}, {Time: 1, Node: 3, Kind: fault.Rejoin}}
		}},
	}
	for _, tc := range cases {
		res := fresh()
		tc.tamper(res)
		err := RunAudit(cfg, res)
		if err == nil {
			t.Errorf("%s: audit accepted the doctored result", tc.name)
		} else if !errors.Is(err, ErrAudit) {
			t.Errorf("%s: error %v is not an ErrAudit", tc.name, err)
		}
	}
}
