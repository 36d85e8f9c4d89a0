package core

import (
	"path/filepath"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
)

// shardMatrixScenarios is the fingerprint matrix of the sharded tick
// core: every scenario class the paper's experiments exercise (clean,
// faulty, adversarial, credit-limited s=1) on both synchronous engines.
// The worker count ShardWorkers must never show through a trace — the
// tick partitions work over shard.Slots fixed logical lanes and merges
// at a deterministic barrier, so any P maps the same lane jobs onto a
// differently sized pool.
func shardMatrixScenarios() []struct {
	name string
	cfg  Config
} {
	faultOpts := &fault.Options{
		Seed:              77,
		CrashRate:         0.08,
		MaxCrashes:        3,
		RejoinDelay:       4,
		RejoinLosesBlocks: true,
		LossRate:          0.05,
		Victim:            fault.VictimUniform,
	}
	advOpts := &adversary.Options{
		Seed:                99,
		FreeRiderFrac:       0.15,
		ThrottlerFrac:       0.1,
		FalseAdvertiserFrac: 0.1,
		CorrupterFrac:       0.1,
		DefectorFrac:        0.05,
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"randomized+clean", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, Seed: 42,
		}},
		{"randomized+fault", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, Seed: 42,
			Fault: faultOpts,
		}},
		{"randomized+adversary", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, Seed: 13,
			CreditLimit: 1, Adversary: advOpts,
		}},
		{"randomized+credit1", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, Seed: 13,
			CreditLimit: 1, DownloadCap: 1,
		}},
		{"randomized+overlay+fault", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, Seed: 42,
			Overlay: OverlayRandomRegular, Degree: 6, Fault: faultOpts,
		}},
		{"triangular+clean", Config{
			Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
			CreditLimit: 2, Seed: 7,
		}},
		{"triangular+fault", Config{
			Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
			Overlay: OverlayRandomRegular, Degree: 6,
			CreditLimit: 2, Seed: 7, Fault: faultOpts,
		}},
		{"triangular+adversary", Config{
			Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
			CreditLimit: 1, Seed: 17, Adversary: advOpts,
		}},
		{"triangular+credit1", Config{
			Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
			CreditLimit: 1, Seed: 17,
		}},
	}
}

// TestShardWorkerFingerprintMatrix is the tentpole's acceptance test:
// for every scenario, the full run fingerprint (trace, fault log,
// adversary counters, credit metrics) at ShardWorkers ∈ {2, 3, 8} must
// be byte-identical to the single-worker reference. Run it under -race
// to also certify the lanes share nothing writable mid-round.
func TestShardWorkerFingerprintMatrix(t *testing.T) {
	for _, sc := range shardMatrixScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(workers int) string {
				cfg := sc.cfg
				cfg.RecordTrace = true
				cfg.ShardWorkers = workers
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("ShardWorkers=%d: Run: %v", workers, err)
				}
				return fingerprint(res)
			}
			want := run(1)
			for _, p := range []int{2, 3, 8} {
				if got := run(p); got != want {
					t.Fatalf("ShardWorkers=%d diverged from the single-worker reference:\n--- P=1 ---\n%s\n--- P=%d ---\n%s",
						p, head(want, 30), p, head(got, 30))
				}
			}
		})
	}
}

// TestResumeShardWorkerMatrix extends the checkpoint/resume guarantee
// across the worker knob: a snapshot carries the shard.Slots lane
// streams but no worker count, so a run checkpointed at one P must
// resume byte-identically at another. Exercised on the two heaviest
// scenarios (full fault + adversary stack on each engine) over every
// ordered pair from P ∈ {1, 8}.
func TestResumeShardWorkerMatrix(t *testing.T) {
	faultOpts := &fault.Options{
		Seed: 77, CrashRate: 0.08, MaxCrashes: 3, RejoinDelay: 4,
		RejoinLosesBlocks: true, LossRate: 0.05, Victim: fault.VictimUniform,
	}
	advOpts := &adversary.Options{
		Seed: 99, FreeRiderFrac: 0.15, ThrottlerFrac: 0.1,
		FalseAdvertiserFrac: 0.1, CorrupterFrac: 0.1, DefectorFrac: 0.05,
	}
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{"randomized+credit+adversary+fault", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized,
			CreditLimit: 1, Seed: 13, Fault: faultOpts, Adversary: advOpts,
		}},
		{"triangular+adversary+fault", Config{
			Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
			CreditLimit: 1, Seed: 17,
			Fault: faultOpts, Adversary: advOpts,
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			cfg.RecordTrace = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("reference Run: %v", err)
			}
			want := fingerprint(res)
			for _, writeP := range []int{1, 8} {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				ck := cfg
				ck.ShardWorkers = writeP
				ck.Checkpoint = &checkpoint.Policy{Path: path, Every: 5}
				if _, err := Run(ck); err != nil {
					t.Fatalf("writeP=%d: checkpointed Run: %v", writeP, err)
				}
				snap, err := checkpoint.ReadFile(path)
				if err != nil {
					t.Fatalf("writeP=%d: ReadFile: %v", writeP, err)
				}
				for _, readP := range []int{1, 8} {
					rc := cfg
					rc.ShardWorkers = readP
					resumed, err := Resume(rc, snap)
					if err != nil {
						t.Fatalf("writeP=%d readP=%d: Resume: %v", writeP, readP, err)
					}
					if got := fingerprint(resumed); got != want {
						t.Errorf("snapshot written at P=%d resumed at P=%d diverged:\n--- reference ---\n%s\n--- resumed ---\n%s",
							writeP, readP, head(want, 30), head(got, 30))
					}
				}
			}
		})
	}
}
