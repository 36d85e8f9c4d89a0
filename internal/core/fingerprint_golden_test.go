package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/randomized"
)

// goldenFingerprints pins the sha256 of the schedule fingerprint for a
// spread of seeded scenarios. Unlike TestCrossEngineDeterminism (which
// proves run-to-run stability within one build), these hashes prove
// stability *across* builds: a representation change — e.g. the
// frame-compressed trace columns — must reproduce the exact draw
// sequence and trace bytes of the revision that recorded them.
// Regenerate only for a sanctioned re-baseline:
//
//	CDGOLD_UPDATE=1 go test ./internal/core -run TestScheduleFingerprintGolden -v
var goldenFingerprints = map[string]string{
	"randomized+fault":               "34fa4088d016badf1fa155485bc3d0f37b3dce1e92b37817093c89354fdcbbcc",
	"triangular+adversary":           "191e045fd5ca22360948eea8f3d75480f86cd00daeba0db31ec0a59cc5128010",
	"randomized+credit+shard":        "e99ad9731923696b7d0ee1407c39fda3cf4592ee709276fab9f54ddcfd233dd4",
	"open-system+churn":              "4f5e7a540654ff734aaf086523685a28277954b3e62f675a50556720ed7cc42b",
	"binomial-pipeline+selfheal":     "7d5f593de0fd4a8a0f5479a597d299b5ef3d59ce5c948ac5b8e64696a1d1b2b2",
	"triangular+rarest+regular":      "a3a62f930648184b3882c6e15b6380c5ce8ad197a0f25dbf6a54b07e074f6f78",
	"triangular+local+regular":       "ae0e03e38937a6860060f4da7f7120666d69d6d85fc2db44f4733d4091ed0d85",
	"triangular+cycle4":              "be78486fc88d8e700fe36553cdabda310cca0480dea374c4674aee8bfb1887ef",
	"triangular+shard3+cap2":         "6794fe7a1b782c63554eab13e951398bb0e1d04f717d5002eca51a5989ae9edb",
	"triangular+held-cycle":          "cbdba6c535881f72f5b7ce2668ebc950535f4288a086eb1afd32254422b4d890",
	"triangular+held-cycle+uncapped": "847d34459d95cca5f350d87cbdc834cdb1da5e69e0194353630a2a6be79dcbdb",
	"triangular+regular+faults":      "6d2078f3e1bae8da7190df7a44491711ed5ff26ec83fc60539065cbecf54ef57",
	"triangular+open":                "a8a3d14237b2f4ac6071cbf5ec72b3c3136ce28e0d3504632be353576901b104",
	"hypercube+verify-triangular":    "ce0044921c099d4d7aafed84c135affcd01411f066add102f4c1ecaedcc12a79",
	"randomized+rarest+credit+shard": "d3aa0e7ed92f98e9e94e429bce3a8305e50abb558587a2d10505d4ac51eea800",
	"randomized+rarest+open":         "6ceaf725b27b134a876ce56b747eddd11620c610a214d1ab2053f01a1cb4a8ad",
	"randomized+local":               "2a0712afbf3f53ae102f54af79322d8b0e1d0676e75f4fb610f5e085925cd363",
	"randomized+local+regular":       "70719325c432df7df8bd480ea8a7deb81a8a00e03ea4d4fd0d0e694b1ae1f27b",
	"sampler+credit+k96+shard2":      "c82590f244971ba1bd66a0d8c73157ddcf12b1c49d37a3592d5f0f958a47de2e",
	"sampler+rarest+open":            "5b39c29d5c8d3e7612bddee88907dc47904cb4302de0d157998e1075d6936a2a",
	"sampler+credit+guard+shard3":    "5fffebd2921e1ad31eaf507f11dc5866de053b3fc0ffe8d8d070126901a94a66",
}

func goldenScenario(name string) Config {
	faultOpts := &fault.Options{
		Seed: 77, CrashRate: 0.08, MaxCrashes: 3, RejoinDelay: 4,
		RejoinLosesBlocks: true, LossRate: 0.05, Victim: fault.VictimUniform,
	}
	advOpts := &adversary.Options{
		Seed: 99, FreeRiderFrac: 0.15, ThrottlerFrac: 0.1,
		FalseAdvertiserFrac: 0.1, CorrupterFrac: 0.1, DefectorFrac: 0.05,
	}
	switch name {
	case "randomized+fault":
		return Config{Nodes: 24, Blocks: 12, Algorithm: AlgoRandomized,
			Overlay: OverlayRandomRegular, Degree: 6, Seed: 42, Fault: faultOpts}
	case "triangular+adversary":
		return Config{Nodes: 20, Blocks: 10, Algorithm: AlgoTriangular,
			CreditLimit: 1, Seed: 17, Fault: faultOpts, Adversary: advOpts}
	case "randomized+credit+shard":
		return Config{Nodes: 48, Blocks: 16, Algorithm: AlgoRandomized,
			CreditLimit: 1, Seed: 13, ShardWorkers: 4, Fault: faultOpts, Adversary: advOpts}
	case "open-system+churn":
		return Config{Nodes: 41, Blocks: 8, Algorithm: AlgoRandomized,
			Seed: 29,
			Arrivals: &arrival.Options{
				Seed: 5, Rate: 1.5, EarlyExit: 0.2, Linger: 3,
			}}
	case "binomial-pipeline+selfheal":
		return Config{Nodes: 18, Blocks: 9, Algorithm: AlgoBinomialPipeline,
			Seed: 5, Fault: faultOpts}
	case "triangular+rarest+regular":
		return Config{Nodes: 40, Blocks: 16, Algorithm: AlgoTriangular,
			Overlay: OverlayRandomRegular, Degree: 8, Policy: randomized.RarestFirst,
			CreditLimit: 1, Seed: 3}
	case "triangular+local+regular":
		return Config{Nodes: 36, Blocks: 12, Algorithm: AlgoTriangular,
			Overlay: OverlayRandomRegular, Degree: 10, Policy: randomized.LocalRare,
			CreditLimit: 1, Seed: 21}
	case "triangular+cycle4":
		return Config{Nodes: 32, Blocks: 12, Algorithm: AlgoTriangular,
			Overlay: OverlayRandomRegular, Degree: 6, CreditLimit: 2,
			Seed: 8}
	// Held (credit-blocked) intents close a 3-cycle that settles; see
	// TestTriangularHeldCycleSettles.
	case "triangular+held-cycle":
		return Config{Nodes: 6, Blocks: 12, Algorithm: AlgoTriangular,
			CreditLimit: 1, DownloadCap: 1, Seed: 54}
	case "triangular+held-cycle+uncapped":
		return Config{Nodes: 6, Blocks: 12, Algorithm: AlgoTriangular,
			Policy: randomized.RarestFirst, CreditLimit: 1, DownloadCap: DownloadUnlimited,
			Seed: 135, Adversary: advOpts}
	case "triangular+shard3+cap2":
		return Config{Nodes: 48, Blocks: 16, Algorithm: AlgoTriangular,
			Policy: randomized.RarestFirst, CreditLimit: 1, DownloadCap: 2,
			ShardWorkers: 3, Seed: 31}
	case "triangular+regular+faults":
		return Config{Nodes: 30, Blocks: 12, Algorithm: AlgoTriangular,
			Overlay: OverlayRandomRegular, Degree: 10, Policy: randomized.RarestFirst,
			CreditLimit: 2, Seed: 44, Fault: faultOpts, Adversary: advOpts}
	case "triangular+open":
		return Config{Nodes: 41, Blocks: 8, Algorithm: AlgoTriangular,
			CreditLimit: 1, Seed: 29,
			Arrivals: &arrival.Options{
				Seed: 6, Rate: 1.5, EarlyExit: 0.2, Linger: 3,
			}}
	case "randomized+rarest+credit+shard":
		return Config{Nodes: 48, Blocks: 16, Algorithm: AlgoRandomized,
			Policy: randomized.RarestFirst, CreditLimit: 1, ShardWorkers: 2, Seed: 19}
	case "randomized+rarest+open":
		return Config{Nodes: 41, Blocks: 8, Algorithm: AlgoRandomized,
			Policy: randomized.RarestFirst, Seed: 29,
			Arrivals: &arrival.Options{
				Seed: 7, Rate: 1.5, EarlyExit: 0.2, Linger: 3,
			}}
	case "randomized+local":
		return Config{Nodes: 40, Blocks: 16, Algorithm: AlgoRandomized,
			Policy: randomized.LocalRare, Seed: 23}
	case "randomized+local+regular":
		return Config{Nodes: 40, Blocks: 16, Algorithm: AlgoRandomized,
			Overlay: OverlayRandomRegular, Degree: 8, Policy: randomized.LocalRare,
			Seed: 27}
	// The sampler scenarios have more than 64 candidate receivers, so
	// the complete graph's rejection sampler runs before the exact pass;
	// k = 96 gives two-word block sets.
	case "sampler+credit+k96+shard2":
		return Config{Nodes: 300, Blocks: 96, Algorithm: AlgoRandomized,
			CreditLimit: 1, ShardWorkers: 2, Seed: 61}
	case "sampler+rarest+open":
		return Config{Nodes: 300, Blocks: 32, Algorithm: AlgoRandomized,
			Policy: randomized.RarestFirst, Seed: 37,
			Arrivals: &arrival.Options{
				Seed: 9, Rate: 24, EarlyExit: 0.1, Linger: 2,
			}}
	case "sampler+credit+guard+shard3":
		return Config{Nodes: 200, Blocks: 24, Algorithm: AlgoRandomized,
			CreditLimit: 1, ShardWorkers: 3, Seed: 53, Fault: faultOpts, Adversary: advOpts}
	case "hypercube+verify-triangular":
		return Config{Nodes: 32, Blocks: 16, Algorithm: AlgoTriangular,
			Overlay: OverlayHypercube, CreditLimit: 2, Seed: 12,
			Verify: MechanismTriangular}
	}
	panic("unknown golden scenario " + name)
}

func TestScheduleFingerprintGolden(t *testing.T) {
	update := os.Getenv("CDGOLD_UPDATE") != ""
	for name, want := range goldenFingerprints {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			cfg := goldenScenario(name)
			cfg.RecordTrace = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			sum := sha256.Sum256([]byte(fingerprint(res)))
			got := hex.EncodeToString(sum[:])
			if update || want == "" {
				t.Logf("goldenFingerprints[%q] = %q", name, got)
				if want == "" {
					t.Skip("golden hash not recorded yet")
				}
			}
			if got != want {
				t.Fatalf("schedule fingerprint drifted:\n got %s\nwant %s\n"+
					"(representation changes must not move the draw sequence; "+
					"re-baseline only with CDGOLD_UPDATE=1 and a sanctioned reason)", got, want)
			}
		})
	}
}

// goldenCheckpoints pins the sha256 of the last checkpoint file a
// golden scenario writes at Every: 5. The file holds the scheduler's
// serialized state (lane streams, ledger, quarantine table, rarity
// counts) next to the engine's, so a refactor of the triangular
// scheduler that keeps the schedule but moves its state or draws shows
// here. Regenerate only with the fingerprints above.
var goldenCheckpoints = map[string]string{
	"triangular+adversary":      "0fa136de872b1f0011654d8ea90156b51831556728a6a9361f8321f7fd611616",
	"triangular+regular+faults": "0ced5138baf4a1b4b86378fd5c421bd3e9bee1de9e12c82b730e2f96cd98dcb5",
}

func TestCheckpointBytesGolden(t *testing.T) {
	update := os.Getenv("CDGOLD_UPDATE") != ""
	for name, want := range goldenCheckpoints {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			cfg := goldenScenario(name)
			path := filepath.Join(t.TempDir(), "run.ckpt")
			cfg.Checkpoint = &checkpoint.Policy{Path: path, Every: 5}
			if _, err := Run(cfg); err != nil {
				t.Fatalf("Run: %v", err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			got := hex.EncodeToString(sum[:])
			if update || want == "" {
				t.Logf("goldenCheckpoints[%q] = %q", name, got)
				if want == "" {
					t.Skip("golden hash not recorded yet")
				}
			}
			if got != want {
				t.Fatalf("checkpoint bytes drifted:\n got %s\nwant %s", got, want)
			}
		})
	}
}
