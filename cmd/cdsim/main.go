// Command cdsim runs a content-distribution simulation and prints its
// metrics, optionally with a full transfer trace. With -reps > 1 it
// runs that many independent replicates (seeds derived from -seed by
// the golden-ratio stride, the same scheme the experiment suite uses)
// on a worker pool and reports aggregate statistics; the output is
// identical for any -workers value.
//
// Examples:
//
//	cdsim -n 1024 -k 1000 -algo binomial-pipeline
//	cdsim -n 1000 -k 1000 -algo randomized -overlay random-regular -degree 25 -seed 7
//	cdsim -n 9 -k 16 -algo riffle -verify strict
//	cdsim -n 8 -k 3 -algo binomial-pipeline -trace      # Figure 1/2 style trace
//	cdsim -n 256 -k 256 -algo randomized -reps 16 -workers 4
//	cdsim -n 4097 -k 32 -algo randomized -policy rarest-first -arrivals 4 -depart 0.1
//
// The last form is an open-system run: peers arrive as a Poisson
// process at λ = 4/tick (capacity -n), depart when complete (10%
// selfishly earlier), and the run ends in a stability verdict —
// drained, or unstable with the watchdog's reason — instead of a
// completion time.
//
// Long runs can checkpoint crash-safely and resume:
//
//	cdsim -n 4096 -k 2000 -algo randomized -checkpoint run.ckpt -ckevery 100
//	cdsim -n 4096 -k 2000 -algo randomized -resume run.ckpt    # same flags + -resume
//
// A resumed run's output is byte-identical to an uninterrupted one.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"barterdist"
	"barterdist/internal/adversary"
	"barterdist/internal/analysis"
	"barterdist/internal/parallel"
)

func main() {
	var (
		n       = flag.Int("n", 16, "total nodes (server + clients)")
		k       = flag.Int("k", 16, "file size in blocks")
		algo    = flag.String("algo", "binomial-pipeline", "algorithm: pipeline | multicast-tree | binomial-tree | binomial-pipeline | multi-server | riffle | randomized | randomized-triangular")
		arity   = flag.Int("arity", 2, "multicast tree fan-out")
		servers = flag.Int("servers", 2, "virtual servers for multi-server")
		overlay = flag.String("overlay", "complete", "randomized overlay: complete | random-regular | hypercube | chain")
		degree  = flag.Int("degree", 0, "random-regular overlay degree")
		policy  = flag.String("policy", "random", "block selection: random | rarest-first | local-rare")
		credit  = flag.Int("credit", 0, "credit limit s (> 0 enables credit-limited barter)")
		rewire  = flag.Int("rewire", 0, "rebuild the random regular overlay every N ticks")
		down    = flag.Int("D", 0, "download capacity (0 = algorithm default, -1 = unlimited)")
		seed    = flag.Uint64("seed", 1, "random seed")
		verify  = flag.String("verify", "", "audit trace against mechanism: strict | credit | triangular")
		trace   = flag.Bool("trace", false, "print the full transfer trace")
		maxT    = flag.Int("maxticks", 0, "tick budget (0 = generous default)")
		reps    = flag.Int("reps", 1, "independent replicates with derived seeds (> 1 prints aggregate stats)")
		workers = flag.Int("workers", 0, "worker pool size for -reps (0 = GOMAXPROCS); output identical for any value >= 1")
		shardW  = flag.Int("shardworkers", 0, "worker pool width for the sharded tick core (0 = GOMAXPROCS, capped at 8 lanes); output identical for any value")
		adv     = flag.String("adversary", "", "adversary mix, e.g. 'freerider=0.2,corrupter=0.1,seed=9' (keys: freerider, throttler, falseadv, corrupter, defector, seed, period, claimrate, corruptrate); completion then means every honest client completed")
		arrRate = flag.Float64("arrivals", 0, "open-system mode: Poisson peer arrival rate λ in peers/tick (> 0 enables; -n becomes the cumulative-arrival capacity and the run ends in a verdict)")
		departP = flag.Float64("depart", 0, "probability an arriving peer is selfish and departs before completing (requires -arrivals)")
		seedPol = flag.String("seedpolicy", "", "what completed peers do: depart | stay (requires -arrivals; default depart)")
		linger  = flag.Float64("linger", 0, "ticks a completed peer keeps seeding before departing (requires -arrivals and seed policy depart)")
		ckpt    = flag.String("checkpoint", "", "write a crash-safe snapshot of the run to this file every -ckevery ticks")
		ckevery = flag.Int("ckevery", 100, "checkpoint interval in ticks (with -checkpoint)")
		resume  = flag.String("resume", "", "resume an interrupted run from this snapshot file (pass the original run's flags too)")
	)
	flag.Parse()

	pol, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := barterdist.Config{
		Nodes:          *n,
		Blocks:         *k,
		Algorithm:      barterdist.Algorithm(*algo),
		TreeArity:      *arity,
		VirtualServers: *servers,
		Overlay:        barterdist.Overlay(*overlay),
		Degree:         *degree,
		Policy:         pol,
		CreditLimit:    *credit,
		RewireEvery:    *rewire,
		Seed:           *seed,
		ShardWorkers:   *shardW,
		Verify:         barterdist.Mechanism(*verify),
		RecordTrace:    *trace,
		MaxTicks:       *maxT,
	}
	switch {
	case *down > 0:
		cfg.DownloadCap = *down
	case *down < 0:
		cfg.DownloadCap = barterdist.DownloadUnlimited
	}
	if *adv != "" {
		opts, err := adversary.ParseSpec(*adv)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Adversary = &opts
	}

	// Open-system flags. Every problem is reported at once (the same
	// errors.Join discipline as ArrivalOptions.Validate) so a bad λ and
	// a bad seed policy cost one round trip, not two.
	var openErrs []error
	if *arrRate != 0 {
		opts := barterdist.ArrivalOptions{
			Seed:      *seed,
			Rate:      *arrRate,
			EarlyExit: *departP,
			Linger:    *linger,
		}
		switch *seedPol {
		case "", "depart":
			opts.SeedPolicy = barterdist.SeedDepart
		case "stay":
			opts.SeedPolicy = barterdist.SeedStay
		default:
			openErrs = append(openErrs, fmt.Errorf("cdsim: unknown -seedpolicy %q (want depart or stay)", *seedPol))
		}
		if err := opts.Validate(); err != nil {
			openErrs = append(openErrs, err)
		}
		if *reps > 1 {
			openErrs = append(openErrs, errors.New("cdsim: -arrivals requires -reps 1 (an open run reports a verdict, not aggregate completion times)"))
		}
		cfg.Arrivals = &opts
	} else {
		if *departP != 0 {
			openErrs = append(openErrs, errors.New("cdsim: -depart requires -arrivals (departures need an open system)"))
		}
		if *seedPol != "" {
			openErrs = append(openErrs, errors.New("cdsim: -seedpolicy requires -arrivals"))
		}
		if *linger != 0 {
			openErrs = append(openErrs, errors.New("cdsim: -linger requires -arrivals"))
		}
	}
	if len(openErrs) > 0 {
		fmt.Fprintln(os.Stderr, errors.Join(openErrs...))
		os.Exit(2)
	}

	// -checkpoint composes with -resume: a resumed run keeps writing
	// fresh snapshots, so repeatedly crashed runs resume from the latest.
	if *ckpt != "" {
		if *ckevery < 1 {
			fmt.Fprintf(os.Stderr, "cdsim: -ckevery %d must be >= 1 with -checkpoint (0 would never write a snapshot)\n", *ckevery)
			os.Exit(2)
		}
		cfg.Checkpoint = &barterdist.CheckpointPolicy{Path: *ckpt, Every: *ckevery}
	}

	if *reps > 1 {
		if *trace {
			fmt.Fprintln(os.Stderr, "cdsim: -trace requires -reps 1 (a trace is one run's transcript)")
			os.Exit(2)
		}
		if *ckpt != "" || *resume != "" {
			fmt.Fprintln(os.Stderr, "cdsim: -checkpoint/-resume require -reps 1 (a snapshot captures one run)")
			os.Exit(2)
		}
		if err := runReplicates(cfg, *reps, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var res *barterdist.Result
	if *resume != "" {
		snap, rerr := barterdist.ReadCheckpoint(*resume)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		res, err = barterdist.Resume(cfg, snap)
	} else {
		res, err = barterdist.Run(cfg)
	}
	if err != nil {
		if errors.Is(err, barterdist.ErrStalled) {
			fmt.Fprintf(os.Stderr, "stalled: %v\n", err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("algorithm:            %s\n", cfg.Algorithm)
	fmt.Printf("nodes (n):            %d\n", *n)
	fmt.Printf("blocks (k):           %d\n", *k)
	if res.Overlay != "" {
		fmt.Printf("overlay:              %s\n", res.Overlay)
	}
	if o := res.Open; o != nil {
		// An open run's metric is its verdict, not a completion time:
		// the completion bounds assume all n peers present at tick 0.
		fmt.Printf("arrival rate (λ):     %g peers/tick (seed policy %s)\n",
			cfg.Arrivals.Rate, cfg.Arrivals.SeedPolicy)
		if o.Verdict == barterdist.VerdictUnstable {
			fmt.Printf("verdict:              %s (%s)\n", o.Verdict, o.Reason)
		} else {
			fmt.Printf("verdict:              %s\n", o.Verdict)
		}
		fmt.Printf("run length:           %d ticks\n", res.CompletionTime)
		fmt.Printf("arrived / departed:   %d / %d\n", o.Arrived, o.Departed)
		fmt.Printf("completed / selfish:  %d / %d\n", o.Completed, o.EarlyExits)
		fmt.Printf("occupancy peak/final: %d / %d\n", o.PeakOccupancy, o.FinalOccupancy)
		fmt.Printf("sojourn mean/max:     %.2f / %.0f ticks\n", o.SojournMean, o.SojournMax)
	} else {
		fmt.Printf("completion time:      %d ticks\n", res.CompletionTime)
		fmt.Printf("cooperative bound:    %d ticks (Theorem 1)\n", res.OptimalTime)
		fmt.Printf("strict-barter bound:  %d ticks (Theorem 2)\n", res.StrictBarterBound)
	}
	fmt.Printf("upload efficiency:    %.3f\n", res.Efficiency)
	fmt.Printf("useful transfers:     %d (total %d)\n", res.Sim.UsefulTransfers, res.Sim.TotalTransfers)
	if res.Sim.Strategies != nil {
		dishonest := 0
		counts := make(map[adversary.Strategy]int)
		for v, st := range res.Sim.Strategies {
			if v > 0 && st != adversary.Honest {
				dishonest++
				counts[st]++
			}
		}
		fmt.Printf("adversarial clients:  %d of %d", dishonest, cfg.Nodes-1)
		sep := " ("
		for _, st := range []adversary.Strategy{adversary.FreeRider, adversary.Throttler, adversary.FalseAdvertiser, adversary.Corrupter, adversary.Defector} {
			if counts[st] > 0 {
				fmt.Printf("%s%d %s", sep, counts[st], st)
				sep = ", "
			}
		}
		if sep == ", " {
			fmt.Print(")")
		}
		fmt.Println()
		fmt.Printf("honest stall rate:    %.1f%% (refused %d, stalled %d, corrupt %d)\n",
			100*res.Sim.HonestStallRate(), res.Sim.AdvRefused, res.Sim.AdvStalled, res.Sim.AdvCorrupt)
	}
	if *trace {
		fmt.Printf("min credit limit:     %d\n", res.MinimalCreditLimit)
	}
	if *verify != "" {
		fmt.Printf("mechanism audit:      %s — PASS\n", *verify)
	}

	if *trace {
		fmt.Println("\ntrace (tick: sender->receiver blocks):")
		cur := res.Sim.Trace.Cursor()
		for cur.NextTick() {
			fmt.Printf("  t=%-3d", cur.Tick())
			for cur.NextSpan() {
				s := cur.Span()
				for j, from := range s.From {
					fmt.Printf("  %d->%d:B%d", int32(from), int32(s.To[j]), int32(s.Block[j]))
				}
			}
			fmt.Println()
		}
	}
}

// runReplicates fans reps seeded copies of cfg out over the worker
// pool (replicate r runs with seed cfg.Seed + r*parallel.SeedStride)
// and prints per-replicate completion times plus aggregate statistics.
// Stalled replicates are reported at the tick budget when one is set,
// mirroring the experiment suite's "off the charts" convention.
func runReplicates(cfg barterdist.Config, reps, workers int) error {
	type outcome struct {
		ticks   float64
		stalled bool
	}
	outs, err := parallel.Map(parallel.Workers(workers), reps, func(r int) (outcome, error) {
		c := cfg
		c.Seed = cfg.Seed + uint64(r)*parallel.SeedStride
		res, err := barterdist.Run(c)
		switch {
		case err == nil:
			return outcome{ticks: float64(res.CompletionTime)}, nil
		case errors.Is(err, barterdist.ErrStalled) && c.MaxTicks > 0:
			return outcome{ticks: float64(c.MaxTicks), stalled: true}, nil
		default:
			return outcome{}, fmt.Errorf("replicate %d (seed %d): %w", r, c.Seed, err)
		}
	})
	if err != nil {
		return err
	}
	times := make([]float64, reps)
	stalled := 0
	for r, o := range outs {
		times[r] = o.ticks
		if o.stalled {
			stalled++
		}
	}
	sum, err := analysis.Summarize(times)
	if err != nil {
		return err
	}
	fmt.Printf("algorithm:            %s\n", cfg.Algorithm)
	fmt.Printf("nodes (n):            %d\n", cfg.Nodes)
	fmt.Printf("blocks (k):           %d\n", cfg.Blocks)
	fmt.Printf("replicates:           %d (base seed %d, golden-ratio stride)\n", reps, cfg.Seed)
	fmt.Printf("mean completion:      %.2f ticks (95%% CI ±%.2f)\n", sum.Mean, sum.CI95)
	if stalled > 0 {
		fmt.Printf("stalled:              %d of %d (counted at the %d-tick budget)\n", stalled, reps, cfg.MaxTicks)
	}
	fmt.Printf("per-replicate ticks: ")
	for _, t := range times {
		fmt.Printf(" %.0f", t)
	}
	fmt.Println()
	return nil
}

func parsePolicy(s string) (barterdist.Policy, error) {
	switch s {
	case "random", "":
		return barterdist.PolicyRandom, nil
	case "rarest-first", "rarest":
		return barterdist.PolicyRarestFirst, nil
	case "local-rare", "local":
		return barterdist.PolicyLocalRare, nil
	default:
		return 0, fmt.Errorf("cdsim: unknown policy %q", s)
	}
}
