package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"barterdist/internal/arrival"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/randomized"
	"barterdist/internal/simulate"
)

// fingerprintOpen extends fingerprint with the open-system result so
// shard-invariance and kill-and-resume comparisons also cover the
// verdict, occupancy trajectory, and sojourn statistics.
func fingerprintOpen(res *Result) string {
	var b strings.Builder
	b.WriteString(fingerprint(res))
	o := res.Open
	if o == nil {
		b.WriteString("open=nil\n")
		return b.String()
	}
	fmt.Fprintf(&b, "open verdict=%v reason=%v arrived=%d departed=%d completed=%d early=%d peak=%d final=%d\n",
		o.Verdict, o.Reason, o.Arrived, o.Departed, o.Completed,
		o.EarlyExits, o.PeakOccupancy, o.FinalOccupancy)
	fmt.Fprintf(&b, "sojourn mean=%.17g max=%.17g\n", o.SojournMean, o.SojournMax)
	fmt.Fprintf(&b, "occupancy=%v\n", o.Occupancy)
	fmt.Fprintf(&b, "arrivals=%v\n", o.ArrivalTime)
	return b.String()
}

func TestOpenValidation(t *testing.T) {
	arr := &arrival.Options{Seed: 1, Rate: 0.5}
	for name, cfg := range map[string]Config{
		"default algorithm": {Nodes: 8, Blocks: 4, Arrivals: arr},
		"pipeline":          {Nodes: 8, Blocks: 4, Algorithm: AlgoPipeline, Arrivals: arr},
		"fixed overlay": {Nodes: 8, Blocks: 4, Algorithm: AlgoRandomized,
			Overlay: OverlayRandomRegular, Degree: 3, Arrivals: arr},
		"with fault": {Nodes: 8, Blocks: 4, Algorithm: AlgoRandomized,
			Arrivals: arr, Fault: &fault.Options{Seed: 1, CrashRate: 0.1}},
		"bad rate": {Nodes: 8, Blocks: 4, Algorithm: AlgoRandomized,
			Arrivals: &arrival.Options{Seed: 1, Rate: -1}},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestOpenDrains is the basic ergodic case: a modest Poisson stream
// into a rarest-first swarm empties the pool and drains.
func TestOpenDrains(t *testing.T) {
	res, err := Run(Config{
		Nodes:     129,
		Blocks:    8,
		Algorithm: AlgoRandomized,
		Policy:    randomized.RarestFirst,
		Seed:      42,
		Arrivals:  &arrival.Options{Seed: 7, Rate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Open
	if o == nil {
		t.Fatal("open run returned nil Open result")
	}
	if o.Verdict != arrival.VerdictDrained {
		t.Fatalf("verdict = %v (reason %v), want Drained", o.Verdict, o.Reason)
	}
	if o.Arrived != 128 {
		t.Errorf("Arrived = %d, want 128", o.Arrived)
	}
	if o.Completed != 128 {
		t.Errorf("Completed = %d, want 128", o.Completed)
	}
	// The final completer's departure is scheduled for the tick after
	// the drain fires, so exactly one seed lingers at the end.
	if o.Departed != 127 {
		t.Errorf("Departed = %d, want 127 (SeedDepart default, last seed lingers)", o.Departed)
	}
	if o.FinalOccupancy != 0 {
		t.Errorf("FinalOccupancy = %d, want 0", o.FinalOccupancy)
	}
	if o.SojournMean <= 0 || o.SojournMax < o.SojournMean {
		t.Errorf("sojourn stats inconsistent: mean=%g max=%g", o.SojournMean, o.SojournMax)
	}
}

// TestOpenTriangularDrains runs the open system under triangular
// barter with selfish early exits and lingering seeds.
func TestOpenTriangularDrains(t *testing.T) {
	res, err := Run(Config{
		Nodes:       65,
		Blocks:      8,
		Algorithm:   AlgoTriangular,
		Policy:      randomized.RarestFirst,
		CreditLimit: 1,
		Seed:        11,
		Arrivals: &arrival.Options{
			Seed: 3, Rate: 0.4, EarlyExit: 0.25, Linger: 5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Open
	if o == nil || o.Verdict != arrival.VerdictDrained {
		t.Fatalf("open = %+v, want Drained verdict", o)
	}
	if o.Arrived != 64 {
		t.Errorf("Arrived = %d, want 64", o.Arrived)
	}
	if o.EarlyExits == 0 {
		t.Error("EarlyExits = 0, want some selfish departures at EarlyExit=0.25")
	}
	if o.Completed+o.EarlyExits != o.Arrived {
		t.Errorf("Completed(%d) + EarlyExits(%d) != Arrived(%d)",
			o.Completed, o.EarlyExits, o.Arrived)
	}
}

// TestOpenShardInvariance: an open flash crowd must be byte-identical
// for ShardWorkers 1 and 8 — the acceptance bar for letting the
// sharded lanes loose on an open swarm.
func TestOpenShardInvariance(t *testing.T) {
	run := func(workers int, algo Algorithm) string {
		cfg := Config{
			Nodes:        257,
			Blocks:       16,
			Algorithm:    algo,
			Policy:       randomized.RarestFirst,
			Seed:         21,
			ShardWorkers: workers,
			RecordTrace:  true,
			Arrivals: &arrival.Options{
				Seed: 9, Rate: 2.0, EarlyExit: 0.1,
			},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fingerprintOpen(res)
	}
	for _, algo := range []Algorithm{AlgoRandomized, AlgoTriangular} {
		if a, b := run(1, algo), run(8, algo); a != b {
			t.Errorf("%s: ShardWorkers=1 and 8 diverge", algo)
		}
	}
}

// TestOpenAudit replays recorded open runs — drained, selfish, and
// unstable-truncated — through simulate.RunAudit: the replay rebuilds
// the population from the Arrive/Depart log and the starvation audit
// must account for every peer, including the ones that left early.
func TestOpenAudit(t *testing.T) {
	for name, cfg := range map[string]Config{
		"drained": {
			Nodes: 129, Blocks: 8, Algorithm: AlgoRandomized,
			Policy: randomized.RarestFirst, Seed: 42,
			Arrivals: &arrival.Options{Seed: 7, Rate: 0.5},
		},
		"selfish": {
			Nodes: 65, Blocks: 8, Algorithm: AlgoTriangular,
			CreditLimit: 1, Seed: 11,
			Arrivals: &arrival.Options{Seed: 3, Rate: 0.4, EarlyExit: 0.3, Linger: 2},
		},
		"unstable": {
			Nodes: 513, Blocks: 2, Algorithm: AlgoRandomized, Seed: 5,
			Arrivals: &arrival.Options{Seed: 13, Rate: 1.5},
		},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.RecordTrace = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := simulate.RunAudit(res.SimConfig, res.Sim); err != nil {
				t.Fatalf("RunAudit: %v", err)
			}
		})
	}
}

// TestOpenResumeMatchesUninterruptedRun extends the checkpoint
// acceptance bar to open swarms: checkpointing must not perturb the
// run, and resuming mid-flash-crowd must reproduce the uninterrupted
// fingerprint — arrival stream position, departure queue, watchdog
// windows, occupancy trajectory, all of it.
func TestOpenResumeMatchesUninterruptedRun(t *testing.T) {
	for _, sc := range []struct {
		name string
		cfg  Config
	}{
		{"randomized-open", Config{
			Nodes: 129, Blocks: 8, Algorithm: AlgoRandomized,
			Policy: randomized.RarestFirst, Seed: 42,
			Arrivals: &arrival.Options{Seed: 7, Rate: 1.0, EarlyExit: 0.2, Linger: 3},
		}},
		{"triangular-open", Config{
			Nodes: 65, Blocks: 8, Algorithm: AlgoTriangular,
			CreditLimit: 1, Seed: 11,
			Arrivals: &arrival.Options{Seed: 3, Rate: 0.6, SeedPolicy: arrival.SeedStay},
		}},
		{"randomized-open-unstable", Config{
			Nodes: 513, Blocks: 2, Algorithm: AlgoRandomized, Seed: 5,
			Arrivals: &arrival.Options{Seed: 13, Rate: 1.5},
		}},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			cfg.RecordTrace = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("uninterrupted Run: %v", err)
			}
			want := fingerprintOpen(res)
			for _, every := range []int{1, 7} {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				ck := cfg
				ck.Checkpoint = &checkpoint.Policy{Path: path, Every: every}
				ckRes, err := Run(ck)
				if err != nil {
					t.Fatalf("every=%d: checkpointed Run: %v", every, err)
				}
				if got := fingerprintOpen(ckRes); got != want {
					t.Fatalf("every=%d: checkpointing perturbed the open run", every)
				}
				snap, err := checkpoint.ReadFile(path)
				if err != nil {
					t.Fatalf("every=%d: ReadFile: %v", every, err)
				}
				resumed, err := Resume(cfg, snap)
				if err != nil {
					t.Fatalf("every=%d: Resume: %v", every, err)
				}
				if got := fingerprintOpen(resumed); got != want {
					t.Errorf("every=%d: resumed open run diverged", every)
				}
			}
		})
	}
}

// TestOpenTwoChunkInstability reproduces the Norros–Reittu two-chunk
// phenomenon in the synchronous engine: with k=2, departure at
// completion, and arrivals faster than the server's upload rate, the
// swarm collects in the "one club" — nearly everyone holds the same
// chunk, the scarce chunk exists only at the server and at peers that
// complete and immediately leave — and occupancy diverges. The
// watchdog must grade the run Unstable instead of hanging. The
// syndrome is selection-policy-independent (rarest-first cannot break
// the club, matching Hajek–Zhu's "missing piece" analysis), so both
// policies are pinned Unstable; what restores ergodicity is seed
// persistence (SeedStay, or a Linger window) or an arrival rate below
// the server's service rate.
func TestOpenTwoChunkInstability(t *testing.T) {
	base := Config{
		Nodes:     1025,
		Blocks:    2,
		Algorithm: AlgoRandomized,
		Seed:      5,
	}
	run := func(pol randomized.Policy, arr arrival.Options) *arrival.OpenResult {
		t.Helper()
		cfg := base
		cfg.Policy = pol
		cfg.Arrivals = &arr
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Open
	}

	fast := arrival.Options{Seed: 13, Rate: 1.5}
	for _, pol := range []randomized.Policy{randomized.Random, randomized.RarestFirst} {
		if o := run(pol, fast); o.Verdict != arrival.VerdictUnstable || o.Reason != arrival.ReasonDivergence {
			t.Errorf("policy %v, depart-at-completion: verdict = %v/%v (peak %d), want Unstable/divergence",
				pol, o.Verdict, o.Reason, o.PeakOccupancy)
		}
	}

	stay := fast
	stay.SeedPolicy = arrival.SeedStay
	if o := run(randomized.Random, stay); o.Verdict != arrival.VerdictDrained {
		t.Errorf("SeedStay: verdict = %v/%v, want Drained", o.Verdict, o.Reason)
	}

	linger := fast
	linger.Linger = 8
	if o := run(randomized.Random, linger); o.Verdict != arrival.VerdictDrained {
		t.Errorf("Linger=8: verdict = %v/%v, want Drained", o.Verdict, o.Reason)
	}

	slow := arrival.Options{Seed: 13, Rate: 0.25}
	if o := run(randomized.Random, slow); o.Verdict != arrival.VerdictDrained {
		t.Errorf("slow arrivals: verdict = %v/%v, want Drained", o.Verdict, o.Reason)
	}
}
