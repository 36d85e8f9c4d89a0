// Command cdverify audits the deterministic schedules against the
// paper's barter mechanisms and reports, for a grid of (n, k), which
// mechanism each schedule satisfies and the minimal per-pair credit
// limit its trace requires.
//
// This makes the paper's feasibility claims directly inspectable:
//
//   - the Riffle Pipeline satisfies strict barter everywhere;
//   - the Binomial Pipeline satisfies credit-limited barter with s = 1
//     when n and k are powers of two, but needs larger s otherwise
//     (Section 3.2.2's caveat);
//   - the generalized (paired) Binomial Pipeline satisfies triangular
//     barter with a small limit (Section 3.3).
//
// Every recorded trace is additionally replayed through
// simulate.RunAudit, which re-derives the whole execution and checks
// the engine invariants (capacity, store-and-forward, liveness,
// accounting) post hoc; a churn section repeats the audit under fault
// injection (crashes, rejoins, transfer loss), and an adversary
// section checks the "protection of barter": with the Table F mix of
// free-riders, liars, and corrupters, every run must replay cleanly,
// every strategy must behave as declared (mechanism.AuditAdversary),
// and under credit-limited barter the free-riders must starve
// (mechanism.VerifyStarvation) — while without barter they leech.
//
// Usage:
//
//	cdverify [-nmax 64] [-kset 4,8,11,16] [-churn=false] [-adversary=false]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"barterdist/internal/adversary"
	"barterdist/internal/core"
	"barterdist/internal/fault"
	"barterdist/internal/mechanism"
	"barterdist/internal/simulate"
)

func main() {
	nmax := flag.Int("nmax", 33, "largest node count to audit (starts at 4)")
	kset := flag.String("kset", "4,8,11,16", "comma-separated block counts")
	churn := flag.Bool("churn", true, "also audit fault-injected runs")
	adv := flag.Bool("adversary", true, "also audit adversarial runs (free-riders, liars, corrupters)")
	auditW := flag.Int("auditworkers", 0, "worker pool width for the mechanism verifiers' pair lanes; the simulate.RunAudit replay is sequential (0 or 1 = sequential; verdicts identical for any value)")
	flag.Parse()
	auditWorkers = *auditW

	ks, err := parseInts(*kset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("%-6s %-6s %-18s %-14s %-14s %-10s %-8s\n",
		"n", "k", "schedule", "strict barter", "min credit s", "triangular", "replay")
	fmt.Println(strings.Repeat("-", 82))

	failures := 0
	for n := 4; n <= *nmax; n += stepFor(n) {
		for _, k := range ks {
			failures += auditRow(n, k, "riffle", core.AlgoRiffle)
			failures += auditRow(n, k, "binomial-pipeline", core.AlgoBinomialPipeline)
		}
	}
	if *churn {
		failures += auditChurn()
	}
	if *adv {
		failures += auditAdversaries()
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d audits violated expectations\n", failures)
		os.Exit(1)
	}
}

// auditChurn runs a small grid of fault-injected scenarios and replays
// each recorded trace through simulate.RunAudit: the trace invariants
// must hold even when nodes crash, rejoin wiped, and transfers vanish.
func auditChurn() int {
	fmt.Println()
	fmt.Printf("churn audits (crash rate / loss rate, rejoin after 8 ticks, wiped)\n")
	fmt.Printf("%-24s %-12s %-12s %-12s %-8s\n", "scheduler", "crash", "loss", "completion", "replay")
	fmt.Println(strings.Repeat("-", 72))
	bad := 0
	scenarios := []struct {
		label string
		algo  core.Algorithm
		crash float64
		loss  float64
	}{
		{"randomized", core.AlgoRandomized, 0.02, 0},
		{"randomized", core.AlgoRandomized, 0.02, 0.05},
		{"binomial+selfheal", core.AlgoBinomialPipeline, 0.02, 0},
		{"riffle+selfheal", core.AlgoRiffle, 0.01, 0.02},
	}
	for i, sc := range scenarios {
		res, err := core.Run(core.Config{
			Nodes: 24, Blocks: 16, Algorithm: sc.algo, Seed: 7, RecordTrace: true,
			AuditWorkers: auditWorkers,
			Fault: &fault.Options{
				Seed:              uint64(1000 + i),
				CrashRate:         sc.crash,
				MaxCrashes:        4,
				RejoinDelay:       8,
				RejoinLosesBlocks: true,
				LossRate:          sc.loss,
			},
		})
		if err != nil {
			fmt.Printf("%-24s %-12g %-12g run failed: %v\n", sc.label, sc.crash, sc.loss, err)
			bad++
			continue
		}
		verdict := "PASS"
		if aerr := simulate.RunAudit(res.SimConfig, res.Sim); aerr != nil {
			verdict = aerr.Error()
			bad++
		}
		fmt.Printf("%-24s %-12g %-12g %-12d %-8s\n",
			sc.label, sc.crash, sc.loss, res.CompletionTime, verdict)
	}
	return bad
}

// auditAdversaries runs the Table F adversary mix against the
// randomized scheduler with and without barter and checks the
// "protection of barter" end to end: every run replays cleanly through
// simulate.RunAudit, every strategy behaved as declared
// (mechanism.AuditAdversary), and the starvation bound holds exactly
// when a credit mechanism is on — free-riders leech without barter and
// starve with it.
func auditAdversaries() int {
	fmt.Println()
	fmt.Printf("adversary audits (20%% free-riders, 10%% false-advertisers, 10%% corrupters)\n")
	fmt.Printf("%-24s %-12s %-14s %-12s %-8s\n", "scheduler", "completion", "honest stall", "starvation", "replay")
	fmt.Println(strings.Repeat("-", 76))
	bad := 0
	mix := adversary.Options{
		FreeRiderFrac:       0.2,
		FalseAdvertiserFrac: 0.1,
		CorrupterFrac:       0.1,
	}
	scenarios := []struct {
		label      string
		algo       core.Algorithm
		credit     int
		wantStarve bool // must the s=1 starvation bound hold?
	}{
		{"randomized (no barter)", core.AlgoRandomized, 0, false},
		{"randomized credit s=1", core.AlgoRandomized, 1, true},
		{"triangular s=1", core.AlgoTriangular, 1, true},
	}
	for i, sc := range scenarios {
		m := mix
		m.Seed = uint64(2000 + i)
		res, err := core.Run(core.Config{
			Nodes: 32, Blocks: 16, Algorithm: sc.algo, CreditLimit: sc.credit,
			Seed: 11, RecordTrace: true, Adversary: &m,
			AuditWorkers: auditWorkers,
		})
		if err != nil {
			fmt.Printf("%-24s run failed: %v\n", sc.label, err)
			bad++
			continue
		}
		replay := "PASS"
		if aerr := simulate.RunAudit(res.SimConfig, res.Sim); aerr != nil {
			replay = "FAIL"
			fmt.Printf("    EXPECTATION VIOLATED: trace replay: %v\n", aerr)
			bad++
		}
		if aerr := mechanism.AuditAdversary(res.Sim, 0); aerr != nil {
			replay = "FAIL"
			fmt.Printf("    EXPECTATION VIOLATED: behavior audit: %v\n", aerr)
			bad++
		}
		starveErr := mechanism.VerifyStarvationLog(res.Sim, 1, auditWorkers)
		starve := "starved"
		if starveErr != nil {
			starve = "leeches"
		}
		if sc.wantStarve && starveErr != nil {
			fmt.Printf("    EXPECTATION VIOLATED: barter failed to starve free-riders: %v\n", starveErr)
			bad++
		}
		if !sc.wantStarve && starveErr == nil {
			fmt.Printf("    EXPECTATION VIOLATED: free-riders starved without barter (protection unmeasurable)\n")
			bad++
		}
		fmt.Printf("%-24s %-12d %-14s %-12s %-8s\n",
			sc.label, res.CompletionTime,
			fmt.Sprintf("%.1f%%", 100*res.Sim.HonestStallRate()), starve, replay)
	}
	return bad
}

// auditWorkers is the -auditworkers flag: the worker pool width every
// mechanism verification in this tool runs at (the simulate.RunAudit
// replay is sequential). Verdicts are byte-identical for any value —
// that is the pair-lane verifiers' determinism contract, exercised
// directly by running this tool at different widths and diffing the
// output.
var auditWorkers int

func stepFor(n int) int {
	if n < 12 {
		return 1
	}
	return 7
}

func auditRow(n, k int, label string, algo core.Algorithm) int {
	res, err := core.Run(core.Config{
		Nodes: n, Blocks: k, Algorithm: algo, RecordTrace: true,
		AuditWorkers: auditWorkers,
	})
	if err != nil {
		fmt.Printf("%-6d %-6d %-18s run failed: %v\n", n, k, label, err)
		return 1
	}
	strict := "no"
	if mechanism.VerifyStrictBarterLog(res.Sim.Trace, false, auditWorkers) == nil {
		strict = "YES"
	}
	minCredit := res.MinimalCreditLimit
	tri := "no"
	for s := 1; s <= 4; s++ {
		if mechanism.VerifyTriangular(res.Sim.Trace.Cursor(), s) == nil {
			tri = fmt.Sprintf("s=%d", s)
			break
		}
	}
	replay := "PASS"
	replayErr := simulate.RunAudit(res.SimConfig, res.Sim)
	if replayErr != nil {
		replay = "FAIL"
	}
	fmt.Printf("%-6d %-6d %-18s %-14s %-14d %-10s %-8s\n", n, k, label, strict, minCredit, tri, replay)

	// Expectation checks (exit nonzero if the paper's claims break).
	bad := 0
	if replayErr != nil {
		fmt.Printf("    EXPECTATION VIOLATED: trace replay: %v\n", replayErr)
		bad++
	}
	if algo == core.AlgoRiffle && strict != "YES" {
		fmt.Printf("    EXPECTATION VIOLATED: riffle must satisfy strict barter\n")
		bad++
	}
	if algo == core.AlgoBinomialPipeline && isPow2(n) && isPow2(k) && minCredit > 1 {
		fmt.Printf("    EXPECTATION VIOLATED: hypercube with n,k powers of two must have s <= 1\n")
		bad++
	}
	return bad
}

func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("cdverify: bad block count %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("cdverify: block count %d must be >= 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}
