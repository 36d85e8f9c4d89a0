package core

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"barterdist/internal/checkpoint"

	"barterdist/internal/randomized"
)

func TestRunValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"too few nodes":  {Nodes: 1, Blocks: 4},
		"no blocks":      {Nodes: 4, Blocks: 0},
		"bad algorithm":  {Nodes: 4, Blocks: 2, Algorithm: "nope"},
		"bad overlay":    {Nodes: 4, Blocks: 2, Algorithm: AlgoRandomized, Overlay: "nope"},
		"bad verify":     {Nodes: 4, Blocks: 2, RecordTrace: true, Verify: "nope"},
		"degree missing": {Nodes: 4, Blocks: 2, Algorithm: AlgoRandomized, Overlay: OverlayRandomRegular},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestRunRejectsCheckpointWithoutInterval: a snapshot path with an
// interval below 1 would never write, so Run refuses the config.
func TestRunRejectsCheckpointWithoutInterval(t *testing.T) {
	cfg := Config{Nodes: 4, Blocks: 2, Checkpoint: &checkpoint.Policy{Path: filepath.Join(t.TempDir(), "run.ckpt")}}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Every = 0") {
		t.Fatalf("Run = %v, want the interval rejected", err)
	}
}

func TestRunDefaultsToBinomialPipeline(t *testing.T) {
	res, err := Run(Config{Nodes: 16, Blocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != res.OptimalTime {
		t.Errorf("binomial pipeline T=%d, optimal %d", res.CompletionTime, res.OptimalTime)
	}
	if res.Overlay != "hypercube" {
		t.Errorf("Overlay = %q", res.Overlay)
	}
}

func TestRunEveryAlgorithmCompletes(t *testing.T) {
	cases := []Config{
		{Nodes: 10, Blocks: 6, Algorithm: AlgoPipeline},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoMulticastTree, TreeArity: 3},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoBinomialTree},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoBinomialPipeline},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoMultiServer, VirtualServers: 3},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoRiffle},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoRiffle, RiffleNoOverlap: true},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoRandomized, Seed: 1},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoRandomized, Overlay: OverlayHypercube, Seed: 1},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoRandomized, Overlay: OverlayChain, Seed: 1},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoRandomized, Overlay: OverlayRandomRegular, Degree: 4, Seed: 1},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoRandomized, Policy: randomized.RarestFirst, Seed: 1},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoRandomized, CreditLimit: 2, DownloadCap: 2, Seed: 1},
		{Nodes: 10, Blocks: 6, Algorithm: AlgoTriangular, Seed: 1},
		// Tiny sparse overlays sit below the credit cliff at s=1, so give
		// the hypercube case some slack.
		{Nodes: 10, Blocks: 6, Algorithm: AlgoTriangular, Overlay: OverlayHypercube, CreditLimit: 3, Seed: 1},
		{Nodes: 16, Blocks: 8, Algorithm: AlgoRandomized, Overlay: OverlayRandomRegular, Degree: 4, RewireEvery: 3, Seed: 1},
	}
	for _, cfg := range cases {
		res, err := Run(cfg)
		if err != nil {
			t.Errorf("%s/%s: %v", cfg.Algorithm, cfg.Overlay, err)
			continue
		}
		// Theorem 1 assumes unit server bandwidth; the multi-server
		// variant is allowed to beat it.
		if cfg.Algorithm != AlgoMultiServer && res.CompletionTime < res.OptimalTime {
			t.Errorf("%s: T=%d below optimal %d", cfg.Algorithm, res.CompletionTime, res.OptimalTime)
		}
		if res.Sim == nil || res.Sim.CompletionTime != res.CompletionTime {
			t.Errorf("%s: raw result missing or inconsistent", cfg.Algorithm)
		}
	}
}

func TestRunRiffleMatchesTheorem3(t *testing.T) {
	res, err := Run(Config{Nodes: 9, Blocks: 16, Algorithm: AlgoRiffle})
	if err != nil {
		t.Fatal(err)
	}
	if want := 16 + 8 - 1; res.CompletionTime != want {
		t.Errorf("riffle T=%d, want %d", res.CompletionTime, want)
	}
}

func TestRunVerifyStrictOnRiffle(t *testing.T) {
	res, err := Run(Config{Nodes: 9, Blocks: 16, Algorithm: AlgoRiffle, Verify: MechanismStrict})
	if err != nil {
		t.Fatalf("riffle failed strict verification: %v", err)
	}
	// Strict barter means every client pair's balance nets to zero at
	// every tick boundary, so the minimal credit limit is 0.
	if res.MinimalCreditLimit != 0 {
		t.Errorf("riffle minimal credit = %d, want 0", res.MinimalCreditLimit)
	}
}

func TestRunVerifyRejectsNonBarterAlgorithm(t *testing.T) {
	_, err := Run(Config{Nodes: 8, Blocks: 4, Algorithm: AlgoPipeline, Verify: MechanismStrict})
	if err == nil {
		t.Fatal("pipeline should fail strict-barter verification")
	}
	if !strings.Contains(err.Error(), "simultaneous exchange") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunVerifyCreditOnHypercube(t *testing.T) {
	// n and k powers of two: credit limit 1 must verify (Section 3.2.2).
	if _, err := Run(Config{Nodes: 16, Blocks: 8, Verify: MechanismCredit, CreditLimit: 1}); err != nil {
		t.Fatalf("hypercube failed s=1 credit verification: %v", err)
	}
}

func TestRunVerifyTriangularOnPairedHypercube(t *testing.T) {
	if _, err := Run(Config{Nodes: 12, Blocks: 8, Verify: MechanismTriangular, CreditLimit: 3}); err != nil {
		t.Fatalf("paired hypercube failed triangular verification: %v", err)
	}
}

func TestRunStalledReturnsErrStalled(t *testing.T) {
	// Credit-limited randomized on a too-sparse overlay with a tiny tick
	// budget: must stall and report ErrStalled.
	_, err := Run(Config{
		Nodes: 64, Blocks: 64, Algorithm: AlgoRandomized,
		Overlay: OverlayRandomRegular, Degree: 3, CreditLimit: 1,
		Seed: 5, MaxTicks: 200,
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

func TestRunRandomizedDeterministicBySeed(t *testing.T) {
	cfg := Config{Nodes: 32, Blocks: 16, Algorithm: AlgoRandomized, Seed: 77}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompletionTime != b.CompletionTime {
		t.Errorf("same seed, different T: %d vs %d", a.CompletionTime, b.CompletionTime)
	}
}

func TestRunEfficiencyBounds(t *testing.T) {
	res, err := Run(Config{Nodes: 16, Blocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Errorf("Efficiency = %v out of (0,1]", res.Efficiency)
	}
}

func TestRunDownloadCapDefaults(t *testing.T) {
	// The overlapped riffle needs D = 2; Run must select it when the
	// caller leaves DownloadCap zero, and respect an explicit value.
	if _, err := Run(Config{Nodes: 5, Blocks: 8, Algorithm: AlgoRiffle}); err != nil {
		t.Fatalf("default download cap: %v", err)
	}
	// k = 2N makes consecutive rounds overlap, so D = 1 must fail.
	if _, err := Run(Config{Nodes: 5, Blocks: 8, Algorithm: AlgoRiffle, DownloadCap: 1}); err == nil {
		t.Fatal("explicit D=1 with overlapped riffle must fail (needs D>=2)")
	}
	if _, err := Run(Config{
		Nodes: 5, Blocks: 8, Algorithm: AlgoRiffle, RiffleNoOverlap: true, DownloadCap: 1,
	}); err != nil {
		t.Fatalf("non-overlapped riffle at D=1: %v", err)
	}
}

func TestRunUnlimitedDownload(t *testing.T) {
	res, err := Run(Config{
		Nodes: 16, Blocks: 8, Algorithm: AlgoRandomized,
		DownloadCap: DownloadUnlimited, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime < res.OptimalTime {
		t.Error("impossible completion")
	}
}

func TestMinimalCreditOnlyWithTrace(t *testing.T) {
	res, err := Run(Config{Nodes: 8, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinimalCreditLimit != 0 {
		t.Errorf("MinimalCreditLimit without trace = %d, want 0", res.MinimalCreditLimit)
	}
	res2, err := Run(Config{Nodes: 8, Blocks: 4, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.MinimalCreditLimit < 1 {
		t.Errorf("MinimalCreditLimit with trace = %d, want >= 1", res2.MinimalCreditLimit)
	}
}

func TestStrictBoundReported(t *testing.T) {
	res, err := Run(Config{Nodes: 16, Blocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.StrictBarterBound <= res.OptimalTime {
		t.Errorf("strict bound %d should exceed cooperative bound %d",
			res.StrictBarterBound, res.OptimalTime)
	}
}
