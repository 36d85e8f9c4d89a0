package asim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runaudit.golden from the current RunAudit")

// goldenScenarios are the recorded runs the RunAudit corpus doctors:
// churn with wiped rejoins and loss, an adversary on top of faults, an
// open swarm with selfish early exits, two download ports under
// heterogeneous rates, and unlimited download ports. Plans are
// single-use, so every call records a fresh run.
var goldenScenarios = map[string]func(t *testing.T) (Config, *Result){
	"churn": func(t *testing.T) (Config, *Result) {
		cfg := Config{Nodes: 24, Blocks: 16, DownloadPorts: 1, RecordTrace: true,
			Fault: mustPlan(t, fault.Options{
				Seed: 77, CrashRate: 0.05, MaxCrashes: 5,
				RejoinDelay: 5, RejoinLosesBlocks: true, LossRate: 0.2,
			})}
		return cfg, goldenRun(t, cfg, NewAsyncRandomized(nil, false, 1, 9))
	},
	"adversary-fault": func(t *testing.T) (Config, *Result) {
		cfg := Config{Nodes: 24, Blocks: 16, DownloadPorts: 1, RecordTrace: true,
			Fault: mustPlan(t, fault.Options{
				Seed: 17, CrashRate: 0.05, MaxCrashes: 4,
				RejoinDelay: 6, RejoinLosesBlocks: true, LossRate: 0.05,
			}),
			Adversary: mustAdvPlan(t, 24, adversary.Options{
				Seed: 99, FreeRiderFrac: 0.15, FalseAdvertiserFrac: 0.1, CorrupterFrac: 0.1,
			})}
		return cfg, goldenRun(t, cfg, NewAsyncRandomized(nil, true, 1, 13))
	},
	"open-early-exit": func(t *testing.T) (Config, *Result) {
		cfg := Config{Nodes: 65, Blocks: 8, DownloadPorts: 1, RecordTrace: true,
			Arrivals: openPlan(t, arrival.Options{Seed: 3, Rate: 0.4, EarlyExit: 0.3, Linger: 2})}
		return cfg, goldenRun(t, cfg, NewAsyncRandomized(nil, true, 1, 42))
	},
	"ports2": func(t *testing.T) (Config, *Result) {
		rates := make([]float64, 24)
		for v := range rates {
			rates[v] = float64(1 + v%3)
		}
		cfg := Config{Nodes: 24, Blocks: 16, DownloadPorts: 2, UploadRate: rates, RecordTrace: true}
		return cfg, goldenRun(t, cfg, NewAsyncRandomized(nil, false, 2, 5))
	},
	"unlimited": func(t *testing.T) (Config, *Result) {
		cfg := Config{Nodes: 24, Blocks: 16, DownloadPorts: Unlimited, RecordTrace: true}
		return cfg, goldenRun(t, cfg, NewAsyncRandomized(nil, true, Unlimited, 21))
	},
}

func goldenRun(t *testing.T, cfg Config, p Protocol) *Result {
	t.Helper()
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenTamper doctors a recorded run; c is the run's configuration
// with defaults filled in. It reports false when the scenario has
// nothing to doctor (no fault log, no strategies, no free sender, ...).
type goldenTamper func(r *Result, c Config) bool

// goldenTampers are the doctored-run modes: the six the audit's former
// worker-invariance matrix used, then at least one per RunAudit check
// site — the artifact shapes, fault-log sanity, every per-record check,
// the replay's store-and-forward and double-delivery checks, the port
// disciplines, and every aggregate and final-state comparison.
var goldenTampers = map[string]goldenTamper{
	"inflated delivery count": func(r *Result, _ Config) bool { r.Transfers++; return true },
	"forged block id": func(r *Result, c Config) bool {
		r.Trace[len(r.Trace)/2].Block = int32(c.Blocks - 1)
		r.Trace[len(r.Trace)/2+1].Block = int32(c.Blocks - 1)
		return true
	},
	"out-of-range receiver":     func(r *Result, _ Config) bool { r.Trace[len(r.Trace)/3].To = 99; return true },
	"stretched duration":        func(r *Result, _ Config) bool { r.Trace[len(r.Trace)/4].End += 0.5; return true },
	"shifted client completion": func(r *Result, _ Config) bool { r.ClientCompletion[3]++; return true },
	"forged fault log": func(r *Result, _ Config) bool {
		if len(r.FaultLog) == 0 {
			return false
		}
		r.FaultLog[0].Node = 0
		return true
	},

	// Artifact shapes.
	"missing final snapshot": func(r *Result, _ Config) bool {
		r.FinalHave = r.FinalHave[:len(r.FinalHave)-1]
		return true
	},

	// Fault-log sanity.
	"fault-log node out of range": func(r *Result, c Config) bool {
		insertEvent(r, fault.Event{Time: midTime(r), Node: int32(c.Nodes), Kind: fault.Crash})
		return true
	},
	"negative event time": func(r *Result, _ Config) bool {
		if len(r.FaultLog) == 0 {
			return false
		}
		r.FaultLog[len(r.FaultLog)/2].Time = -1
		return true
	},
	"fault log back in time": func(r *Result, _ Config) bool {
		for i := len(r.FaultLog) / 2; i < len(r.FaultLog); i++ {
			if i > 0 && r.FaultLog[i].Time > r.FaultLog[i-1].Time {
				r.FaultLog[i-1].Time, r.FaultLog[i].Time = r.FaultLog[i].Time, r.FaultLog[i-1].Time
				return true
			}
		}
		return false
	},
	"repeated crash or departure": func(r *Result, _ Config) bool {
		return repeatEvent(r, fault.Crash, fault.Depart)
	},
	"repeated rejoin or arrival": func(r *Result, _ Config) bool {
		return repeatEvent(r, fault.Rejoin, fault.Arrive)
	},
	"out-of-order arrival": func(r *Result, _ Config) bool {
		var arrivals []int
		for i, ev := range r.FaultLog {
			if ev.Kind == fault.Arrive {
				arrivals = append(arrivals, i)
			}
		}
		if len(arrivals) < 4 {
			return false
		}
		a, b := arrivals[2], arrivals[3]
		r.FaultLog[a].Node, r.FaultLog[b].Node = r.FaultLog[b].Node, r.FaultLog[a].Node
		return true
	},
	"foreign arrival or crash": func(r *Result, c Config) bool {
		kind := fault.Arrive
		if r.Open != nil {
			kind = fault.Crash
		}
		insertEvent(r, fault.Event{Time: midTime(r), Node: int32(c.Nodes - 1), Kind: kind})
		return true
	},
	"foreign departure or rejoin": func(r *Result, c Config) bool {
		kind := fault.Depart
		if r.Open != nil {
			kind = fault.Rejoin
		}
		insertEvent(r, fault.Event{Time: midTime(r), Node: int32(c.Nodes - 1), Kind: kind})
		return true
	},
	"unknown event kind": func(r *Result, _ Config) bool {
		if len(r.FaultLog) == 0 {
			return false
		}
		r.FaultLog[len(r.FaultLog)/2].Kind = fault.Kind(9)
		return true
	},

	// Per-record checks, in the audit's order.
	"records out of order": func(r *Result, _ Config) bool {
		for i := len(r.Trace) / 2; i+1 < len(r.Trace); i++ {
			if r.Trace[i].End < r.Trace[i+1].End {
				r.Trace[i], r.Trace[i+1] = r.Trace[i+1], r.Trace[i]
				return true
			}
		}
		return false
	},
	"sender out of range": func(r *Result, c Config) bool { r.Trace[len(r.Trace)/2].From = int32(c.Nodes); return true },
	"receiver out of range": func(r *Result, _ Config) bool {
		r.Trace[len(r.Trace)/2].To = -1
		return true
	},
	"self-transfer": func(r *Result, _ Config) bool {
		tr := &r.Trace[len(r.Trace)/2]
		tr.To = tr.From
		return true
	},
	"block out of range": func(r *Result, c Config) bool { r.Trace[len(r.Trace)/2].Block = int32(c.Blocks); return true },
	"upload to the server": func(r *Result, _ Config) bool {
		return editFromMid(r, func(tr *TransferRecord) bool {
			if tr.From == 0 {
				return false
			}
			tr.To = 0
			return true
		})
	},
	"degenerate interval": func(r *Result, _ Config) bool {
		tr := &r.Trace[len(r.Trace)/2]
		tr.Start = tr.End
		return true
	},
	"negative start": func(r *Result, _ Config) bool { r.Trace[0].Start = -0.5; return true },
	"NaN start":      func(r *Result, _ Config) bool { r.Trace[len(r.Trace)/2].Start = math.NaN(); return true },
	"NaN interval": func(r *Result, _ Config) bool {
		tr := &r.Trace[len(r.Trace)/2]
		tr.Start, tr.End = math.NaN(), math.NaN()
		return true
	},
	"corrupt but delivered": func(r *Result, _ Config) bool {
		return editFromMid(r, func(tr *TransferRecord) bool {
			if tr.Lost {
				return false
			}
			tr.Corrupt = true
			return true
		})
	},
	"adversary but delivered": func(r *Result, _ Config) bool {
		return editFromMid(r, func(tr *TransferRecord) bool {
			if tr.Lost {
				return false
			}
			tr.Adversary = true
			return true
		})
	},
	"adversary drop without strategies": func(r *Result, _ Config) bool {
		if r.Strategies != nil {
			return false
		}
		tr := &r.Trace[len(r.Trace)/2]
		tr.Lost, tr.Adversary = true, true
		return true
	},
	"honest sender misbehaving": func(r *Result, _ Config) bool {
		if r.Strategies == nil {
			return false
		}
		return editFromMid(r, func(tr *TransferRecord) bool {
			if r.Strategies[tr.From] != adversary.Honest {
				return false
			}
			tr.Lost, tr.Adversary = true, true
			return true
		})
	},
	"dead uploader": func(r *Result, _ Config) bool {
		return killFromMid(r, func(tr TransferRecord) (int32, float64) { return tr.From, tr.Start })
	},
	"dead downloader": func(r *Result, _ Config) bool {
		return killFromMid(r, func(tr TransferRecord) (int32, float64) { return tr.To, tr.Start })
	},
	"fault mid-flight": func(r *Result, _ Config) bool {
		return killFromMid(r, func(tr TransferRecord) (int32, float64) { return tr.From, (tr.Start + tr.End) / 2 })
	},

	// Replay checks.
	"store-and-forward": func(r *Result, c Config) bool {
		// Reverse the latest client-to-client delivery into the
		// median-completing client: it cannot have held the block at
		// that transfer's start.
		var done []int
		for v := 1; v < c.Nodes; v++ {
			if r.ClientCompletion[v] > 0 {
				done = append(done, v)
			}
		}
		if len(done) == 0 {
			return false
		}
		sort.SliceStable(done, func(i, j int) bool { return r.ClientCompletion[done[i]] < r.ClientCompletion[done[j]] })
		v := int32(done[len(done)/2])
		for i := len(r.Trace) - 1; i >= 0; i-- {
			tr := &r.Trace[i]
			if tr.To == v && !tr.Lost && tr.From != 0 && tr.End <= r.ClientCompletion[v] &&
				flight(c, int(tr.To), int(tr.From)) == flight(c, int(tr.From), int(tr.To)) {
				tr.From, tr.To = tr.To, tr.From
				return true
			}
		}
		return false
	},
	"double delivery": func(r *Result, c Config) bool {
		// Retarget a later server upload at a client that already
		// received the block, with no fault event for it in between.
		for i := len(r.Trace) / 2; i < len(r.Trace); i++ {
			a := r.Trace[i]
			if a.Lost {
				continue
			}
			for j := i + 1; j < len(r.Trace); j++ {
				b := &r.Trace[j]
				if b.Lost || b.From != 0 || b.To == a.To || b.End <= a.End ||
					flight(c, 0, int(a.To)) != flight(c, 0, int(b.To)) || eventBetween(r, a.To, a.End, b.End) {
					continue
				}
				b.To, b.Block = a.To, a.Block
				return true
			}
		}
		return false
	},

	// Port disciplines.
	"serial upload overlap": func(r *Result, c Config) bool {
		// Move a client upload that overlaps a server upload onto the
		// server, which holds every block.
		for i := len(r.Trace) / 2; i < len(r.Trace); i++ {
			a := r.Trace[i]
			if a.From != 0 {
				continue
			}
			for j := range r.Trace {
				b := &r.Trace[j]
				if b.From == 0 || b.Adversary || b.Start >= a.End || a.Start >= b.End ||
					flight(c, 0, int(b.To)) != flight(c, int(b.From), int(b.To)) {
					continue
				}
				b.From = 0
				return true
			}
		}
		return false
	},
	"download ports exceeded": func(r *Result, c Config) bool {
		if c.DownloadPorts == Unlimited {
			return false
		}
		// Next to a delivery, start DownloadPorts more (lost) receives
		// of blocks not in flight to the same receiver meanwhile.
		for i := len(r.Trace) / 2; i < len(r.Trace); i++ {
			a := r.Trace[i]
			if a.Lost {
				continue
			}
			end := a.End
			for u := 0; u < c.Nodes; u++ {
				end = math.Max(end, a.Start+flight(c, u, int(a.To)))
			}
			inFlight := map[int32]bool{}
			for _, tr := range r.Trace {
				if tr.To == a.To && tr.Start < end && a.Start < tr.End {
					inFlight[tr.Block] = true
				}
			}
			added := 0
			for added < c.DownloadPorts && injectLost(r, c, a.To, a.Start, func(b int32) bool {
				if inFlight[b] {
					return false
				}
				inFlight[b] = true
				return true
			}) {
				added++
			}
			if added > 0 {
				return true
			}
		}
		return false
	},
	"block twice in flight": func(r *Result, c Config) bool {
		for i := len(r.Trace) / 2; i < len(r.Trace); i++ {
			a := r.Trace[i]
			if !a.Lost && injectLost(r, c, a.To, a.Start, func(b int32) bool { return b == a.Block }) {
				return true
			}
		}
		return false
	},

	// Aggregate and final-state comparisons.
	"truncated trace": func(r *Result, _ Config) bool { r.Trace = r.Trace[:len(r.Trace)-1]; return true },
	"lost count":      func(r *Result, _ Config) bool { r.Lost++; return true },
	"adversary drop counts": func(r *Result, _ Config) bool {
		if r.Strategies == nil {
			return false
		}
		r.AdvStalled++
		return true
	},
	"honest useful count": func(r *Result, _ Config) bool {
		if r.Strategies == nil {
			return false
		}
		r.HonestUseful--
		return true
	},
	"understated completion time": func(r *Result, _ Config) bool { r.CompletionTime /= 2; return true },
	"stamped server completion":   func(r *Result, _ Config) bool { r.ClientCompletion[0] = 1; return true },
	"final block set": func(r *Result, c Config) bool {
		v := c.Nodes - 2
		r.FinalHave[v] = r.FinalHave[v].Clone()
		if !r.FinalHave[v].Remove(0) {
			r.FinalHave[v].Add(0)
		}
		return true
	},
	"final liveness": func(r *Result, c Config) bool {
		if r.FinalAlive == nil {
			return false
		}
		r.FinalAlive[c.Nodes-3] = !r.FinalAlive[c.Nodes-3]
		return true
	},
	"open completions": func(r *Result, _ Config) bool {
		if r.Open == nil {
			return false
		}
		o := *r.Open
		o.Completed--
		r.Open = &o
		return true
	},
	"forged verdict": func(r *Result, _ Config) bool {
		if r.Open == nil {
			return false
		}
		o := *r.Open
		o.Verdict = arrival.VerdictUnstable + 7
		r.Open = &o
		return true
	},
}

// midTime is the End of the middle trace record.
func midTime(r *Result) float64 { return r.Trace[len(r.Trace)/2].End }

// flight is the duration the bandwidth model gives a u->v transfer.
func flight(c Config, u, v int) float64 {
	down := c.DownloadRate[v]
	if c.DownloadPorts > 0 {
		down /= float64(c.DownloadPorts)
	}
	return 1 / math.Min(c.UploadRate[u], down)
}

// editFromMid applies edit to the trace records from the middle on
// until it accepts one.
func editFromMid(r *Result, edit func(tr *TransferRecord) bool) bool {
	for i := len(r.Trace) / 2; i < len(r.Trace); i++ {
		if edit(&r.Trace[i]) {
			return true
		}
	}
	return false
}

// insertEvent adds ev to the fault log after every event no later
// than ev.
func insertEvent(r *Result, ev fault.Event) {
	i := sort.Search(len(r.FaultLog), func(i int) bool { return r.FaultLog[i].Time > ev.Time })
	r.FaultLog = append(r.FaultLog[:i], append([]fault.Event{ev}, r.FaultLog[i:]...)...)
}

// repeatEvent logs the first closed-run event of kind closed (open-run
// event of kind open) a second time, right after itself.
func repeatEvent(r *Result, closed, open fault.Kind) bool {
	kind := closed
	if r.Open != nil {
		kind = open
	}
	for i, ev := range r.FaultLog {
		if ev.Kind == kind {
			r.FaultLog = append(r.FaultLog[:i+1], r.FaultLog[i:]...)
			return true
		}
	}
	return false
}

// eventBetween reports a fault event for v in [from, to].
func eventBetween(r *Result, v int32, from, to float64) bool {
	for _, ev := range r.FaultLog {
		if ev.Node == v && ev.Time >= from && ev.Time <= to {
			return true
		}
	}
	return false
}

// killFromMid takes a client out of the run at a time pick derives
// from a trace record, trying records from the middle on: an open run
// moves (or adds) the client's departure there, a closed run logs a
// crash there if no later fault event of the client would clash.
func killFromMid(r *Result, pick func(tr TransferRecord) (int32, float64)) bool {
	for i := len(r.Trace) / 2; i < len(r.Trace); i++ {
		v, at := pick(r.Trace[i])
		if v == 0 {
			continue
		}
		later := -1
		for j, ev := range r.FaultLog {
			if ev.Node == v && ev.Time >= at {
				later = j
				break
			}
		}
		switch {
		case r.Open != nil && later >= 0 && r.FaultLog[later].Kind == fault.Depart:
			r.FaultLog = append(r.FaultLog[:later], r.FaultLog[later+1:]...)
			insertEvent(r, fault.Event{Time: at, Node: v, Kind: fault.Depart})
		case r.Open != nil && later < 0:
			insertEvent(r, fault.Event{Time: at, Node: v, Kind: fault.Depart})
		case r.Open == nil && later < 0:
			insertEvent(r, fault.Event{Time: at, Node: v, Kind: fault.Crash})
		default:
			continue
		}
		return true
	}
	return false
}

// injectLost inserts a network-lost transfer to v starting at start,
// from the first node that is idle and alive for the whole flight,
// never came back wiped, and held a block ok accepts by start. It
// reports false when no node qualifies.
func injectLost(r *Result, c Config, v int32, start float64, ok func(b int32) bool) bool {
	ix := buildEventIndex(r.FaultLog, r.Open != nil, c.Nodes)
	wiped := map[int32]bool{}
	for _, ev := range r.FaultLog {
		if ev.Wiped {
			wiped[ev.Node] = true
		}
	}
	for u := 0; u < c.Nodes; u++ {
		end := start + flight(c, u, int(v))
		if int32(u) == v || wiped[int32(u)] || !ix.aliveAt(u, start) || ix.eventDuring(u, start, end) {
			continue
		}
		held := map[int32]bool{}
		busy := false
		for _, tr := range r.Trace {
			busy = busy || (int(tr.From) == u && tr.Start < end && start < tr.End)
			if int(tr.To) == u && !tr.Lost && tr.End <= start {
				held[tr.Block] = true
			}
		}
		if busy {
			continue
		}
		for b := int32(0); b < int32(c.Blocks); b++ {
			if (u == 0 || held[b]) && ok(b) {
				at := sort.Search(len(r.Trace), func(i int) bool { return r.Trace[i].End > end })
				rec := TransferRecord{Start: start, End: end, From: int32(u), To: v, Block: b, Lost: true}
				r.Trace = append(r.Trace[:at], append([]TransferRecord{rec}, r.Trace[at:]...)...)
				return true
			}
		}
	}
	return false
}

// TestAsimRunAuditGoldenErrors is RunAudit's reference: every scenario
// is audited pristine and under every applicable tamper, and the
// verdicts must match testdata/runaudit.golden byte for byte. Run with
// -update to rewrite the file after a deliberate change.
func TestAsimRunAuditGoldenErrors(t *testing.T) {
	var got []string
	for _, scen := range sortedKeys(goldenScenarios) {
		cfg, res := goldenScenarios[scen](t)
		got = append(got, fmt.Sprintf("%s/pristine: %s", scen, errString(RunAudit(cfg, res))))
		for _, name := range sortedKeys(goldenTampers) {
			cfg, res := goldenScenarios[scen](t)
			if !goldenTampers[name](res, cfg.withDefaults()) {
				continue
			}
			got = append(got, fmt.Sprintf("%s/%s: %s", scen, name, errString(RunAudit(cfg, res))))
		}
	}
	path := filepath.Join("testdata", "runaudit.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
