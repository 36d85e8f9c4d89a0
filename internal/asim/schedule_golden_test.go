package asim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/asim"
	"barterdist/internal/bt"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/graph"
	"barterdist/internal/xrand"
)

// goldenAsyncSchedules pins the sha256 of the event-driven engine's
// transfer schedule for both async block-selection protocols: the
// randomized protocol under Random and Rarest-First at one, two and
// unlimited download ports, on the complete graph and on a
// random-regular overlay, once with churn plus loss and once with an
// adversary plan (the quarantine guard's path), and BitTorrent with and
// without churn. A change to how either protocol picks a block or a
// target must reproduce these bytes. Regenerate only for a sanctioned
// re-baseline:
//
//	CDGOLD_UPDATE=1 go test ./internal/asim -run TestAsyncScheduleGolden -v
var goldenAsyncSchedules = map[string]string{
	"bt+churn":                            "4c81568c11fccc4a425c03b8abf0f4fb0643074f674d81e3331d0302d42de1d1",
	"bt+clean":                            "27496ae7b731e2349f35b4b038b0518550e5a651b9696876c6090c60bdb5c8f5",
	"random+complete+ports1+adversary":    "45731c77542eb6c72612de2d7b334bb159c486136923682734097a534f57dc7b",
	"random+complete+ports1+churn":        "38752a46d7b42b029c03e6cdd8486e6dcfbd7a9cc57784f1c6e6ee387898009b",
	"random+complete+ports2+adversary":    "aa38a47cf9fdae172383503c23216e29af712c194d2e4d7e379ff379b83fd8ef",
	"random+complete+ports2+churn":        "77b1e1e1eaf04e4984769745558306ef62beb2a85ce014ef5f7eafa4b41d3136",
	"random+complete+unlimited+adversary": "068d4f872a41e83ca5b2c9ef713a933097e8041e051d8aa3700e055393da5d64",
	"random+complete+unlimited+churn":     "81f896b41ab021e7118452d92c62df79012329758f1ddc8405c596188cee1968",
	"random+regular+ports1+adversary":     "d9154d327e5a054a89a13a42b5ed76b6b677f3633288be3a78144a4a73d47a15",
	"random+regular+ports1+churn":         "34bdd4a3fc1d5cb5ff9d781af0645567b98f782cf1a1f1670af36306017e5b89",
	"random+regular+ports2+adversary":     "d400745d66da8a3c1bea69589dad95fefb8011d66867df1003d5108d27d8e84e",
	"random+regular+ports2+churn":         "02fe1b83207d3621493cf016e10334660d7a1f4c46acac2de487571b83d6f98d",
	"random+regular+unlimited+adversary":  "5090ba91c80b305b9debfe411a8827e71bb7594b5bde7698d9b98216dabc68d8",
	"random+regular+unlimited+churn":      "a6df05e693aa8af85111d2fc1641c9c8233119f4cd8fdd1f4a9ba11a963b0f71",
	"rarest+complete+ports1+adversary":    "27c07b2577b81e4504b7f8137ced8916ddce4905ec7c1360837f2e4cc94cbd86",
	"rarest+complete+ports1+churn":        "a3086301f15cf42edf7a09b830f6902e6ae6edb52798a03ae3615506805ba561",
	"rarest+complete+ports2+adversary":    "b68cd56c7bc87d383480e17ce99dbf8f6fcc8bbb3e16d68ab28b4e16969192f7",
	"rarest+complete+ports2+churn":        "3cb04ed791a0d6cddf94dfc031ed5b9c86be7c3becfb0c546f4251c5c0bf8646",
	"rarest+complete+unlimited+adversary": "14ac8657f5afedfe06d4e0c625a87b9a84ce8010b2a403dbd9d4ab36ada8f029",
	"rarest+complete+unlimited+churn":     "4bec2c22cf40d2c7e4cb8695a34ccee1de48f72645617e685ef6bab72c23768a",
	"rarest+regular+ports1+adversary":     "d0fd65fd36847a9ca4d5c2c27e806eddf29a9290552c901edabbdba97fc18f36",
	"rarest+regular+ports1+churn":         "9770bc704bd2c5cac2df00f3fd3da6c4558921f10602ecdca47a4e12a30cb87a",
	"rarest+regular+ports2+adversary":     "b6e97b5326fc3b81bb5780263e77e2de34be45bc5802d4fc8e9a0144243182a0",
	"rarest+regular+ports2+churn":         "a208a4601eb69ef63ba871d1bfdaf0167957dcfb66bc25ebd1870a4264df2e0b",
	"rarest+regular+unlimited+adversary":  "46b7713271c4eb06bc3c5d57212aa58b50f6d5024c757c9b8c1b8d768d344cf7",
	"rarest+regular+unlimited+churn":      "fef0f6964343593e3592b1f5c8d0432e7edde4dd5ce3351b2c4c325a9fa1488a",
}

func asyncGoldenScenario(t *testing.T, name string) (asim.Config, asim.Protocol) {
	t.Helper()
	cfg := asim.Config{Nodes: 20, Blocks: 12, RecordTrace: true}
	overlay, err := graph.RandomRegular(cfg.Nodes, 6, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	churn := func() *fault.Plan {
		p, err := fault.NewPlan(fault.Options{
			Seed: 17, CrashRate: 0.05, MaxCrashes: 4, RejoinDelay: 6,
			RejoinLosesBlocks: true, LossRate: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if strings.HasPrefix(name, "bt+") {
		cfg.DownloadPorts = 1
		if name == "bt+churn" {
			cfg.Fault = churn()
		}
		p, err := bt.New(bt.Options{Graph: overlay, DownloadPorts: 1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return cfg, p
	}
	var policy, topo, ports, adversity string
	if _, err := fmt.Sscanf(strings.ReplaceAll(name, "+", " "), "%s %s %s %s", &policy, &topo, &ports, &adversity); err != nil {
		t.Fatalf("scenario %q: %v", name, err)
	}
	var g *graph.Graph
	if topo == "regular" {
		g = overlay
	}
	switch ports {
	case "ports1":
		cfg.DownloadPorts = 1
	case "ports2":
		cfg.DownloadPorts = 2
	default:
		cfg.DownloadPorts = asim.Unlimited
	}
	if adversity == "churn" {
		cfg.Fault = churn()
	} else {
		p, err := adversary.NewPlan(cfg.Nodes, adversary.Options{
			Seed: 99, FreeRiderFrac: 0.15, FalseAdvertiserFrac: 0.1, CorrupterFrac: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Adversary = p
	}
	return cfg, asim.NewAsyncRandomized(g, policy == "rarest", cfg.DownloadPorts, 13)
}

// asyncGoldenNames lists every scenario the table must pin.
func asyncGoldenNames() []string {
	names := []string{"bt+clean", "bt+churn"}
	for _, policy := range []string{"random", "rarest"} {
		for _, topo := range []string{"complete", "regular"} {
			for _, ports := range []string{"ports1", "ports2", "unlimited"} {
				for _, adversity := range []string{"churn", "adversary"} {
					names = append(names, strings.Join([]string{policy, topo, ports, adversity}, "+"))
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

func asyncScheduleFingerprint(res *asim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completion=%.17g transfers=%d lost=%d corrupt=%d\n",
		res.CompletionTime, res.Transfers, res.Lost, res.Corrupt)
	fmt.Fprintf(&b, "clients=%v\n", res.ClientCompletion)
	for _, tr := range res.Trace {
		fmt.Fprintf(&b, "%.17g..%.17g %d->%d#%d lost=%v corrupt=%v adv=%v\n",
			tr.Start, tr.End, tr.From, tr.To, tr.Block, tr.Lost, tr.Corrupt, tr.Adversary)
	}
	for _, ev := range res.FaultLog {
		fmt.Fprintf(&b, "fault t=%.17g node=%d kind=%d\n", ev.Time, ev.Node, ev.Kind)
	}
	if res.Strategies != nil {
		fmt.Fprintf(&b, "strategies=%v advstalled=%d advcorrupt=%d huseful=%d hwasted=%d\n",
			res.Strategies, res.AdvStalled, res.AdvCorrupt, res.HonestUseful, res.HonestWasted)
	}
	return b.String()
}

func TestAsyncScheduleGolden(t *testing.T) {
	update := os.Getenv("CDGOLD_UPDATE") != ""
	for _, name := range asyncGoldenNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			want, ok := goldenAsyncSchedules[name]
			cfg, p := asyncGoldenScenario(t, name)
			res, err := asim.Run(cfg, p)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Transfers == 0 {
				t.Fatal("scenario moved no block")
			}
			sum := sha256.Sum256([]byte(asyncScheduleFingerprint(res)))
			got := hex.EncodeToString(sum[:])
			if update || !ok {
				t.Logf("%q: %q,", name, got)
				if !ok {
					t.Skip("golden hash not recorded yet")
				}
			}
			if got != want {
				t.Fatalf("async schedule drifted:\n got %s\nwant %s\n"+
					"(re-baseline only with CDGOLD_UPDATE=1 and a sanctioned reason)", got, want)
			}
		})
	}
}

// goldenAsimCheckpoints pins the sha256 of the last checkpoint file
// three golden scenarios write at Every: 7: Rarest-First with churn at
// one and two download ports, and Random with unlimited ports (several
// transfers arriving at a node at once) under an adversary plan.
// BitTorrent is absent because bt.Protocol cannot be checkpointed. The file holds the
// pending event queue in canonical order, the park mask and the
// protocol's streams and counts next to the swarm's sections, so a
// change to the engine's queue or in-flight bookkeeping that keeps the
// schedule but moves what is saved shows here. Regenerate only with the
// schedules above.
var goldenAsimCheckpoints = map[string]string{
	"rarest+regular+ports1+churn":        "9d950c46f61186020ddbce071c5ba69440c47c50ee4da8b98cce5cb11c87c996",
	"rarest+complete+ports2+churn":       "425ce2eff607271bb0b3c3148398dbabe29e7380705228e2aa2135bd808f119c",
	"random+regular+unlimited+adversary": "5515db81f32004ad694a9b01a5ef2646c37f4d67ca9cc4e78d081dabe880cc1d",
}

func TestAsimCheckpointBytesGolden(t *testing.T) {
	update := os.Getenv("CDGOLD_UPDATE") != ""
	for name, want := range goldenAsimCheckpoints {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			cfg, p := asyncGoldenScenario(t, name)
			path := filepath.Join(t.TempDir(), "run.ckpt")
			cfg.Checkpoint = &checkpoint.Policy{Path: path, Every: 7}
			if _, err := asim.Run(cfg, p); err != nil {
				t.Fatalf("Run: %v", err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			got := hex.EncodeToString(sum[:])
			if update || want == "" {
				t.Logf("%q: %q,", name, got)
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
