package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/fault"
	"barterdist/internal/simulate"
	"barterdist/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden corpora of the tests that run from the current code")

// goldenScenarios are the recorded runs the RunAudit corpus doctors:
// churny faults, adversaries (with and without churn), an open swarm,
// and a binomial pipeline long enough to seal trace frames, so ticks
// straddle frame boundaries.
var goldenScenarios = map[string]Config{
	"churn": {
		Nodes: 24, Blocks: 16, Algorithm: AlgoRandomized, Seed: 7, RecordTrace: true,
		Fault: &fault.Options{
			Seed: 1001, CrashRate: 0.02, MaxCrashes: 4,
			RejoinDelay: 8, RejoinLosesBlocks: true, LossRate: 0.05,
		},
	},
	"adversary": {
		Nodes: 32, Blocks: 16, Algorithm: AlgoRandomized, CreditLimit: 1,
		Seed: 11, RecordTrace: true,
		Adversary: &adversary.Options{
			Seed: 2002, FreeRiderFrac: 0.2, FalseAdvertiserFrac: 0.1, CorrupterFrac: 0.1,
		},
	},
	"adversary-churn": {
		Nodes: 32, Blocks: 16, Algorithm: AlgoRandomized, Seed: 13, RecordTrace: true,
		Fault: &fault.Options{
			Seed: 1003, CrashRate: 0.02, MaxCrashes: 3, RejoinDelay: 6, LossRate: 0.05,
		},
		Adversary: &adversary.Options{
			Seed: 2003, FreeRiderFrac: 0.1, CorrupterFrac: 0.1,
		},
	},
	"open": {
		Nodes: 24, Blocks: 8, Algorithm: AlgoRandomized, Seed: 9, RecordTrace: true,
		Arrivals: &arrival.Options{Seed: 7, Rate: 0.5},
	},
	"sealed-pipeline": {
		Nodes: 520, Blocks: 256, Algorithm: AlgoBinomialPipeline, RecordTrace: true,
	},
}

// tamper doctors a recorded run. It reports false when the scenario
// has nothing to doctor (no drops to re-kind, no liveness mask, ...).
type tamper func(r *simulate.Result, sc simulate.Config) bool

// goldenTampers are the doctored-trace modes: the six of
// TestAuditWorkerInvarianceDoctored, one per RunAudit check site, and
// two that pin how the replay reads a tick (same-tick relay,
// frame-straddling tick).
var goldenTampers = map[string]tamper{
	"inflated useful count":   func(r *simulate.Result, _ simulate.Config) bool { r.UsefulTransfers++; return true },
	"understated total count": func(r *simulate.Result, _ simulate.Config) bool { r.TotalTransfers--; return true },
	"claimed earlier completion": func(r *simulate.Result, _ simulate.Config) bool {
		drops, kinds := r.Trace.MaterializeDrops()
		r.Trace = trace.FromTicks(r.Trace.Materialize()[:r.Trace.Ticks()-1], drops, kinds, r.Trace.Kinded())
		return true
	},
	"swapped block id": func(r *simulate.Result, sc simulate.Config) bool {
		return doctor(r, func(ticks [][]trace.Transfer, _ [][]int) bool {
			tr := &ticks[1][0]
			if tr.Block == int32(sc.Blocks-1) {
				return false // nothing to swap
			}
			tr.Block = int32(sc.Blocks - 1)
			return true
		})
	},
	"forged transfer target": func(r *simulate.Result, _ simulate.Config) bool {
		return doctor(r, func(ticks [][]trace.Transfer, _ [][]int) bool {
			tr := &ticks[2][0]
			tr.To = tr.From
			return true
		})
	},
	"shifted client completion": func(r *simulate.Result, _ simulate.Config) bool { r.ClientCompletion[3]++; return true },

	"sender out of range": func(r *simulate.Result, sc simulate.Config) bool {
		return editMid(r, func(tr *trace.Transfer) { tr.From = int32(sc.Nodes) })
	},
	"receiver out of range": func(r *simulate.Result, _ simulate.Config) bool {
		return editMid(r, func(tr *trace.Transfer) { tr.To = -1 })
	},
	"self-transfer": func(r *simulate.Result, _ simulate.Config) bool {
		return editMid(r, func(tr *trace.Transfer) { tr.To = tr.From })
	},
	"block out of range": func(r *simulate.Result, sc simulate.Config) bool {
		return editMid(r, func(tr *trace.Transfer) { tr.Block = int32(sc.Blocks) })
	},
	"dead uploader":   func(r *simulate.Result, _ simulate.Config) bool { return killMid(r, true) },
	"dead downloader": func(r *simulate.Result, _ simulate.Config) bool { return killMid(r, false) },
	"store-and-forward": func(r *simulate.Result, sc simulate.Config) bool {
		// Reverse the transfer that completed the median-completing
		// client: that client cannot have held the block beforehand.
		var done []int
		for v := 1; v < sc.Nodes; v++ {
			if r.ClientCompletion[v] > 0 {
				done = append(done, v)
			}
		}
		if len(done) == 0 {
			return false
		}
		sort.SliceStable(done, func(i, j int) bool { return r.ClientCompletion[done[i]] < r.ClientCompletion[done[j]] })
		v := done[len(done)/2]
		tick := r.ClientCompletion[v]
		return doctor(r, func(ticks [][]trace.Transfer, drops [][]int) bool {
			ts, lost := ticks[tick-1], lostSet(drops[tick-1])
			for i := len(ts) - 1; i >= 0; i-- {
				if tr := &ts[i]; int(tr.To) == v && !lost[i] {
					tr.From, tr.To = tr.To, tr.From
					return true
				}
			}
			return false
		})
	},
	"same-tick relay": func(r *simulate.Result, _ simulate.Config) bool {
		// From the middle tick on, a later transfer of a tick forwards
		// a block that an earlier one delivered to its sender in the
		// same tick. The sender never received the block before, so it
		// did not hold it when the tick began.
		mid := midTick(r)
		return doctor(r, func(ticks [][]trace.Transfer, drops [][]int) bool {
			held := map[[2]int32]bool{} // (node, block) delivered in an earlier tick
			for t, ts := range ticks {
				lost := lostSet(drops[t])
				for i, a := range ts {
					if t+1 < mid || lost[i] || a.To == 0 || held[[2]int32{a.To, a.Block}] {
						continue
					}
					for j := i + 1; j < len(ts); j++ {
						if ts[j].To != a.To {
							ts[j].From, ts[j].Block = a.To, a.Block
							return true
						}
					}
				}
				for i, a := range ts {
					if !lost[i] {
						held[[2]int32{a.To, a.Block}] = true
					}
				}
			}
			return false
		})
	},
	"frame-straddling tick": func(r *simulate.Result, _ simulate.Config) bool {
		// The first transfer of the second sealed frame, when the tick
		// holding it began in the first frame.
		const frameLen = 1 << 16 // transfers per sealed trace frame
		return doctor(r, func(ticks [][]trace.Transfer, _ [][]int) bool {
			start := 0
			for _, ts := range ticks {
				if i := frameLen - start; i < len(ts) {
					if i <= 0 {
						return false // the tick begins on the boundary
					}
					ts[i].To = ts[i].From
					return true
				}
				start += len(ts)
			}
			return false
		})
	},
	"upload cap": func(r *simulate.Result, _ simulate.Config) bool {
		// A second transfer by a client sender, of a block it sends anyway.
		return pairMid(r, func(a, b *trace.Transfer) bool {
			if a.From == 0 || b.To == a.From {
				return false
			}
			b.From, b.Block = a.From, a.Block
			return true
		})
	},
	"download cap": func(r *simulate.Result, sc simulate.Config) bool {
		if sc.DownloadCap == simulate.Unlimited {
			return false
		}
		return pairMid(r, func(a, b *trace.Transfer) bool {
			if b.From == a.To {
				return false
			}
			b.To = a.To
			return true
		})
	},
	"unknown drop kind": func(r *simulate.Result, _ simulate.Config) bool {
		if !r.Trace.Kinded() || r.Trace.Drops() == 0 {
			return false
		}
		drops, kinds := r.Trace.MaterializeDrops()
		for t := len(kinds) - 1; t >= 0; t-- {
			if len(kinds[t]) > 0 {
				kinds[t][0] = uint8(trace.NumKinds) + 4
				break
			}
		}
		r.Trace = trace.FromTicks(r.Trace.Materialize(), drops, kinds, true)
		return true
	},
	"invalid fault-log node": func(r *simulate.Result, _ simulate.Config) bool {
		if len(r.FaultLog) == 0 {
			insertEvent(r, fault.Event{Time: 1, Node: 0, Kind: fault.Crash})
		} else {
			r.FaultLog[len(r.FaultLog)/2].Node = 0
		}
		return true
	},
	"fractional event time": func(r *simulate.Result, _ simulate.Config) bool {
		if len(r.FaultLog) == 0 {
			return false
		}
		r.FaultLog[len(r.FaultLog)/2].Time -= 0.5
		return true
	},
	"negative event time": func(r *simulate.Result, _ simulate.Config) bool {
		if len(r.FaultLog) == 0 {
			return false
		}
		r.FaultLog[0].Time = -7
		return true
	},
	"regressed event time": func(r *simulate.Result, _ simulate.Config) bool {
		// Move the first rejoin to a tick before its predecessor's.
		for i := 1; i < len(r.FaultLog); i++ {
			if r.FaultLog[i].Kind == fault.Rejoin {
				r.FaultLog[i].Time = r.FaultLog[i-1].Time - 1
				return true
			}
		}
		return false
	},
	"foreign event kind": func(r *simulate.Result, sc simulate.Config) bool {
		kind := fault.Arrive
		if r.Open != nil {
			kind = fault.Crash
		}
		insertEvent(r, fault.Event{Time: float64(midTick(r)), Node: int32(sc.Nodes - 1), Kind: kind})
		return true
	},
	"out-of-order arrival": func(r *simulate.Result, _ simulate.Config) bool {
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
	"leftover fault events": func(r *simulate.Result, _ simulate.Config) bool {
		kind := fault.Crash
		if r.Open != nil {
			kind = fault.Depart
		}
		r.FaultLog = append(r.FaultLog, fault.Event{Time: float64(r.Trace.Ticks() + 5), Node: 1, Kind: kind})
		return true
	},
	"final block set": func(r *simulate.Result, sc simulate.Config) bool {
		v := sc.Nodes - 2
		r.FinalHave[v] = r.FinalHave[v].Clone()
		if !r.FinalHave[v].Remove(0) {
			r.FinalHave[v].Add(0)
		}
		return true
	},
	"completion tick": func(r *simulate.Result, sc simulate.Config) bool {
		r.ClientCompletion[sc.Nodes-2] += 2
		return true
	},
	"final liveness": func(r *simulate.Result, sc simulate.Config) bool {
		if r.FinalAlive == nil {
			return false
		}
		r.FinalAlive[sc.Nodes-3] = !r.FinalAlive[sc.Nodes-3]
		return true
	},
	"lost count": func(r *simulate.Result, _ simulate.Config) bool { r.LostTransfers++; return true },
	"adversary drop counts": func(r *simulate.Result, _ simulate.Config) bool {
		if r.Strategies == nil {
			return false
		}
		r.AdvRefused++
		return true
	},
	"honest useful count": func(r *simulate.Result, _ simulate.Config) bool {
		if r.Strategies == nil {
			return false
		}
		r.HonestUseful--
		return true
	},
	"open completions": func(r *simulate.Result, _ simulate.Config) bool {
		if r.Open == nil {
			return false
		}
		o := *r.Open
		o.Completed--
		r.Open = &o
		return true
	},
	"forged verdict": func(r *simulate.Result, _ simulate.Config) bool {
		if r.Open == nil {
			return false
		}
		o := *r.Open
		o.Verdict = arrival.VerdictUnstable + 7
		r.Open = &o
		return true
	},
}

// midTick is the 1-based tick in the middle of the recorded run.
func midTick(r *simulate.Result) int { return (r.Trace.Ticks() + 1) / 2 }

// doctor tampers with r's trace through its nested form: edit rewrites
// the per-tick transfer lists in place (drops, by local index, are for
// reading) and reports whether it changed anything, and the trace is
// rebuilt from the result. A recorded Log is never written to.
func doctor(r *simulate.Result, edit func(ticks [][]trace.Transfer, drops [][]int) bool) bool {
	ticks := r.Trace.Materialize()
	drops, kinds := r.Trace.MaterializeDrops()
	if !edit(ticks, drops) {
		return false
	}
	r.Trace = trace.FromTicks(ticks, drops, kinds, r.Trace.Kinded())
	return true
}

// lostSet marks a tick's dropped transfers by local index.
func lostSet(drops []int) map[int]bool {
	out := make(map[int]bool, len(drops))
	for _, j := range drops {
		out[j] = true
	}
	return out
}

// editMid rewrites the last transfer of the middle tick.
func editMid(r *simulate.Result, edit func(tr *trace.Transfer)) bool {
	return doctor(r, func(ticks [][]trace.Transfer, _ [][]int) bool {
		ts := ticks[midTick(r)-1]
		if len(ts) == 0 {
			return false
		}
		edit(&ts[len(ts)-1])
		return true
	})
}

// pairMid hands edit the first pair (a, b), a before b, of the middle
// tick that it accepts, and stores the rewritten b.
func pairMid(r *simulate.Result, edit func(a, b *trace.Transfer) bool) bool {
	return doctor(r, func(ticks [][]trace.Transfer, _ [][]int) bool {
		ts := ticks[midTick(r)-1]
		for i := range ts {
			for j := i + 1; j < len(ts); j++ {
				a, b := ts[i], ts[j]
				if edit(&a, &b) {
					ts[j] = b
					return true
				}
			}
		}
		return false
	})
}

// killMid logs the departure (crash, in a closed run) of a client at
// the start of the first tick from the middle on that has a candidate:
// the sender of a transfer in it when uploader is set, its receiver
// otherwise. The victim is the first such client that no earlier
// transfer of the tick touches, so the replay trips on exactly that
// transfer.
func killMid(r *simulate.Result, uploader bool) bool {
	ticks := r.Trace.Materialize()
	for t := midTick(r); t <= len(ticks); t++ {
		seen := map[int32]bool{}
		for _, tr := range ticks[t-1] {
			v := tr.To
			if uploader {
				v = tr.From
			}
			if v != 0 && !seen[v] {
				kind := fault.Crash
				if r.Open != nil {
					kind = fault.Depart
				}
				insertEvent(r, fault.Event{Time: float64(t), Node: v, Kind: kind})
				return true
			}
			seen[tr.From], seen[tr.To] = true, true
		}
	}
	return false
}

// insertEvent adds ev to the fault log after every event the replay
// applies no later than ev.
func insertEvent(r *simulate.Result, ev fault.Event) {
	i := sort.Search(len(r.FaultLog), func(i int) bool { return r.FaultLog[i].Time > ev.Time })
	r.FaultLog = append(r.FaultLog[:i], append([]fault.Event{ev}, r.FaultLog[i:]...)...)
}

// TestRunAuditGoldenErrors is simulate.RunAudit's reference: every
// scenario is audited pristine and under every applicable tamper, and
// the verdicts must match testdata/runaudit.golden byte for byte. Run
// with -update to rewrite the file after a deliberate change.
func TestRunAuditGoldenErrors(t *testing.T) {
	var got []string
	for _, scen := range sortedKeys(goldenScenarios) {
		cfg := goldenScenarios[scen]
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		got = append(got, fmt.Sprintf("%s/pristine: %s", scen, errString(simulate.RunAudit(res.SimConfig, res.Sim))))
		for _, name := range sortedKeys(goldenTampers) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", scen, err)
			}
			if !goldenTampers[name](res.Sim, res.SimConfig) {
				continue
			}
			got = append(got, fmt.Sprintf("%s/%s: %s", scen, name, errString(simulate.RunAudit(res.SimConfig, res.Sim))))
		}
	}
	checkGolden(t, "runaudit.golden", got)
}

// checkGolden compares got, one verdict per line, with
// testdata/<name> byte for byte, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
