package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/randomized"
)

// resumeScenarios is the determinism matrix for checkpoint/resume:
// every mechanism the paper analyzes (randomized barter-free, credit
// s=1, triangular), a stateless precomputed schedule, and the full
// fault + adversary stack.
func resumeScenarios() []struct {
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
		{"randomized", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, Seed: 42,
		}},
		{"randomized+rarest+credit1", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized,
			Policy: randomized.RarestFirst, CreditLimit: 1, Seed: 13,
		}},
		{"triangular", Config{
			Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
			Overlay: OverlayRandomRegular, Degree: 6,
			CreditLimit: 2, Seed: 7,
		}},
		{"randomized+overlay+fault", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized,
			Overlay: OverlayRandomRegular, Degree: 6, Seed: 42,
			Fault: faultOpts,
		}},
		{"randomized+credit+adversary+fault", Config{
			Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized,
			CreditLimit: 1, Seed: 13,
			Fault: faultOpts, Adversary: advOpts,
		}},
		{"triangular+adversary+fault", Config{
			Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
			CreditLimit: 1, Seed: 17,
			Fault: faultOpts, Adversary: advOpts,
		}},
		{"binomial-pipeline", Config{
			Nodes: 18, Blocks: 9, Algorithm: AlgoBinomialPipeline, Seed: 5,
		}},
	}
}

// TestResumeMatchesUninterruptedRun is the central acceptance test of
// the checkpoint layer: for every scenario, (a) checkpointing must not
// perturb the run, and (b) resuming from the last on-disk snapshot
// must finish with a fingerprint byte-identical to the uninterrupted
// run's — trace, fault log, adversary counters, credit metrics, all of
// it. Exercised at two checkpoint intervals so both an early and a
// near-final snapshot are resumed from.
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	for _, sc := range resumeScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := sc.cfg
			cfg.RecordTrace = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("uninterrupted Run: %v", err)
			}
			want := fingerprint(res)
			for _, every := range []int{1, 5} {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				ck := cfg
				ck.Checkpoint = &checkpoint.Policy{Path: path, Every: every}
				ckRes, err := Run(ck)
				if err != nil {
					t.Fatalf("every=%d: checkpointed Run: %v", every, err)
				}
				if got := fingerprint(ckRes); got != want {
					t.Fatalf("every=%d: checkpointing perturbed the run:\n--- plain ---\n%s\n--- checkpointed ---\n%s",
						every, head(want, 30), head(got, 30))
				}
				snap, err := checkpoint.ReadFile(path)
				if err != nil {
					t.Fatalf("every=%d: ReadFile: %v", every, err)
				}
				resumed, err := Resume(cfg, snap)
				if err != nil {
					t.Fatalf("every=%d: Resume: %v", every, err)
				}
				if got := fingerprint(resumed); got != want {
					t.Errorf("every=%d: resumed run diverged:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
						every, head(want, 30), head(got, 30))
				}
			}
		})
	}
}

// TestResumeRejectsConfigDrift pins that a snapshot only resumes under
// the configuration that produced it: change the file size and the
// restore must fail loudly (a usage error, distinct from ErrCorrupt:
// the file is intact, the pairing is wrong) rather than continue a
// different run.
func TestResumeRejectsConfigDrift(t *testing.T) {
	cfg := Config{Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized, Seed: 42, RecordTrace: true}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck := cfg
	ck.Checkpoint = &checkpoint.Policy{Path: path, Every: 3}
	if _, err := Run(ck); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	drifted := cfg
	drifted.Blocks = 13
	_, err = Resume(drifted, snap)
	if err == nil {
		t.Fatal("Resume accepted a snapshot from a different configuration")
	}
	if !strings.Contains(err.Error(), "different config") {
		t.Fatalf("Resume under drifted config: err = %v, want a config-mismatch error", err)
	}
}

// TestResumeRejectsBitFlips flips every 97th byte of a real snapshot in
// turn and requires ReadFile/Resume to fail with ErrCorrupt each time —
// the per-section checksums leave no silently decodable corruption.
func TestResumeRejectsBitFlips(t *testing.T) {
	cfg := Config{Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
		CreditLimit: 1, Seed: 17, RecordTrace: true}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck := cfg
	ck.Checkpoint = &checkpoint.Policy{Path: path, Every: 2}
	if _, err := Run(ck); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(orig); off += 97 {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x01
		mut := filepath.Join(t.TempDir(), "mut.ckpt")
		if err := os.WriteFile(mut, data, 0o600); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.ReadFile(mut)
		if err == nil {
			_, err = Resume(cfg, snap)
		}
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("bit flip at offset %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}

// TestCheckpointRefusedUnderSelfHeal pins the documented limitation: a
// precomputed schedule wrapped in the self-healing rebuild layer has
// real mid-run state that is not snapshotted, so asking for checkpoints
// must fail loudly instead of writing a snapshot that cannot replay.
func TestCheckpointRefusedUnderSelfHeal(t *testing.T) {
	cfg := Config{
		Nodes: 18, Blocks: 9, Algorithm: AlgoBinomialPipeline, Seed: 5,
		Fault: &fault.Options{Seed: 77, CrashRate: 0.08, MaxCrashes: 2, RejoinDelay: 4},
		Checkpoint: &checkpoint.Policy{
			Path:  filepath.Join(t.TempDir(), "run.ckpt"),
			Every: 1,
		},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("checkpointing a SelfHeal-wrapped run succeeded; it must be refused")
	}
}
