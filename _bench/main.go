// Command benchmark is barterdist's end-to-end benchmark. It runs one
// named workload for a fixed time and prints every metric, by name and
// with its unit, as "workload metric value unit" lines followed by one
// JSON line:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"run_s": {"value": 3.1, "unit": "s"}, …}}
//
// Run it from the repository root; run.sh builds it into .bench_build:
//
//	bash _bench/run.sh --workload closed-credit --seed 46000 --seconds 20 --trace 0
//	bash _bench/run.sh compare old.txt new.txt
//
// Each rep runs in a fresh child process, one at a time, so peak RSS is
// the rep's own; reps repeat until --seconds have passed (at least
// three). Every rep of a run does the same work, and load from other
// tenants only slows a rep, so a time is the fastest rep's and a size
// the median over reps. ShardWorkers and AuditWorkers are
// min(2, nproc), so no run has more workers than cores. The header line
// records the Go version, nproc and GOMAXPROCS.
//
// The compare mode reads the metric lines of two sets of runs and
// prints, per workload and metric, both medians with their quartiles,
// the change, and for end-to-end metrics a verdict against the bound in
// BENCHMARK.json: improved, within bound, regressed, or unresolved when
// the spread is wider than the bound.
//
// # Workloads
//
// The seed supplies every random choice of a workload: the randomized
// scheduler's seed, the arrival process (seed+1) and the random-regular
// graph. Default seed 46000.
//
//   - closed-credit: n = 2,048, k = 64, randomized Random, credit s = 1,
//     complete overlay, D = 1; a rep is a Table Scale row of eight
//     replicates seeded seed + i·parallel.SeedStride, because one run's
//     credit-starved tail makes its time vary by about 15% with the
//     seed. Randomized proposals dominate simulate.Run and the tail
//     ticks are the slowest, so scheduler work shows here and engine
//     and trace work barely do.
//   - closed-pipeline: n = 8,192, k = 512, the binomial pipeline, which
//     must finish at T = k-1+⌈log₂n⌉ = 524. It bypasses randomized:
//     proposals are cheap and deterministic, so the engine's
//     per-transfer cost over 4.2M transfers, core's post-run
//     MinimalCreditLimitLog and RunAudit carry the run. The seed does
//     not change this input.
//   - open-flash: capacity 50,001, k = 32, randomized RarestFirst,
//     Poisson arrivals at λ = 64 per tick, departure at completion, a
//     checkpoint every 200 ticks. Rarest-first over a population that
//     changes every tick, across ~800 small ticks; the only workload
//     that writes and reads checkpoints. The verdict must be Drained
//     with every one of the 50,000 peers arrived and completed.
//   - async-bt: n = 1,024, k = 512, a random 30-regular overlay;
//     BitTorrent, then async rarest-first on the same graph, one
//     DownloadPort (one Table D cell). The only workload on the
//     event-driven engine; it bypasses simulate and randomized, and
//     graph construction gives set-up real work.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: the public constructors the run needs (randomized.New,
//     schedule.NewBinomialPipeline, arrival.NewPlan, graph.RandomRegular,
//     bt.New, asim.NewAsyncRandomized), timed on their own, five
//     samples per rep, each the mean over calls repeated for 20 ms.
//   - run_s: the rep's barterdist.Run calls, one per replicate (each
//     includes core's post-run MinimalCreditLimitLog and checkpoint
//     writes); for async-bt the Table D cell, graph plus both asim.Run
//     calls.
//   - transfers_per_s: TotalTransfers (async: deliveries) over run_s.
//   - audit_s: simulate.RunAudit, plus mechanism.VerifyCreditLimitedLog
//     on closed-credit; asim.RunAudit of both runs on async-bt.
//   - peak_rss_mib: ru_maxrss of the rep's child process.
//   - retained_mib: live heap held by the result after runtime.GC().
//
// Reps that error, fail a check, or mismatch the fingerprint count in
// "failed". The checks: for the default seed, the golden fingerprint in
// golden.go (T, transfer counts, hashes of the completion vector and of
// the trace read by a Window walk, the open verdict and peak
// occupancy); for every seed, transfers = (n-1)·k, T at or above the
// Theorem 1 bound (equal to it for the pipeline), the audits pass,
// arrived = n-1 = completed + early + present, the same fingerprint on
// every rep, and a resume from open-flash's last snapshot equal to the
// uninterrupted run.
//
// # Per-layer metrics (--trace 1)
//
// The traced pass alternates untraced and traced reps. A traced sync
// rep builds the run with the constructors core.Run uses and calls
// simulate.Run through a wrapper that forwards Tick, SnapshotState and
// RestoreState and records a span per Tick and per gap between Ticks;
// the async rep wraps both asim.Protocols and totals their callbacks.
// Audit, decode and checkpoint calls are timed around the call. Spans
// {workload, rep, name, start_ns, end_ns, parent} are written to
// --spans when the run ends. Each layer is named by its role, so every
// workload reports it; the package behind the role is in parentheses.
//
//   - sched.* (randomized, schedule, bt and asim's AsyncRandomized):
//     propose_s, the time inside Tick or the protocol callbacks (for
//     the protocols estimated from one call in 16); calls; call_p50_us
//     and call_tail_us, the median and the highest percentile with at
//     least ten calls beyond it. Moves run_s and transfers_per_s; heavy
//     on closed-credit and open-flash, light on closed-pipeline.
//   - engine.* (simulate, asim): step_s, the engine's time between
//     scheduler calls, with the median plain gap standing in for the
//     step part of a checkpoint gap; ns_per_transfer. Moves run_s and
//     transfers_per_s; heavy on closed-pipeline and async-bt, light on
//     closed-credit.
//   - trace.* (trace, asim's records): mib, bytes_per_transfer,
//     decode_s (one full read of the trace). Moves retained_mib,
//     peak_rss_mib and audit_s; heaviest on closed-pipeline.
//   - audit.replay_s (simulate.RunAudit, asim.RunAudit). Moves audit_s;
//     heavy on closed-pipeline.
//   - checkpoint.mib (checkpoint): bytes written; open-flash only.
//   - unattributed_s: traced run_s not inside any timed layer call, so a
//     split that does not add up shows.
//   - trace_overhead_frac: median traced run_s over median untraced
//     run_s, minus 1.
//
// Lines after these give counts no optimisation should move
// (sched.call_tail_pct, the percentile call_tail_us is; engine.transfers;
// checkpoint.writes; swarm.peak_occupancy, which is n-1 for a closed
// batch) and the package-specific splits that exist on some workloads
// only: mechanism.min_credit_s (core's post-run scan, inside run_s) and
// mechanism.verify_credit_s (inside audit_s), checkpoint.write_s, read_s
// and restore_s, sched.snapshot_s, graph.build_s, bt.protocol_s,
// asim.randomized_protocol_s, setup.build_s, engine.ticks, and
// engine.reconciled_frac (scheduler, step and checkpoint time over the
// simulate.Run wall). They are not declared in BENCHMARK.json, which
// holds only metrics every workload reports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const defaultSeed = 46000

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order; a test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"transfers_per_s", "transfers/s"},
	{"audit_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"retained_mib", "MiB"},
}

var perLayer = []metricDef{
	{"sched.propose_s", "s"},
	{"sched.calls", "count"},
	{"sched.call_p50_us", "us"},
	{"sched.call_tail_us", "us"},
	{"engine.step_s", "s"},
	{"engine.ns_per_transfer", "ns"},
	{"trace.mib", "MiB"},
	{"trace.bytes_per_transfer", "B"},
	{"trace.decode_s", "s"},
	{"audit.replay_s", "s"},
	{"checkpoint.mib", "MiB"},
	{"unattributed_s", "s"},
	{"trace_overhead_frac", "ratio"},
}

// extraUnits are the units of the traced values printed after the
// declared ones: counts no optimisation should move, and splits that
// exist on some workloads only.
var extraUnits = map[string]string{
	"sched.call_tail_pct":        "%",
	"engine.transfers":           "count",
	"checkpoint.writes":          "count",
	"swarm.peak_occupancy":       "count",
	"setup.build_s":              "s",
	"engine.ticks":               "count",
	"engine.reconciled_frac":     "ratio",
	"mechanism.min_credit_s":     "s",
	"mechanism.verify_credit_s":  "s",
	"checkpoint.write_s":         "s",
	"checkpoint.read_s":          "s",
	"checkpoint.restore_s":       "s",
	"sched.snapshot_s":           "s",
	"graph.build_s":              "s",
	"bt.protocol_s":              "s",
	"asim.randomized_protocol_s": "s",
}

const (
	minReps = 3
	// deadline bounds the whole measurement, so the program ends within
	// three minutes even when reps run far slower than expected.
	deadline = 170 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "how long to keep starting reps")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	spansPath := fs.String("spans", "", "with --trace 1, where to write the spans (default <workdir>/spans-<workload>.json)")
	dir := fs.String("workdir", ".bench_build", "directory for checkpoint and spans files")
	child := fs.Bool("child", false, "run one rep in this process and print its outcome as JSON")
	traced := fs.Bool("traced", false, "with --child, run the traced rep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace %d: want 0 or 1\n", *traceMode)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "benchmark: --seconds %v: want > 0\n", *seconds)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	p := repParams{seed: *seed, workers: min(2, runtime.NumCPU()), dir: *dir, traced: *traced}
	if *child {
		if err := json.NewEncoder(stdout).Encode(runRep(w, p)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	tracing := *traceMode == 1
	reps, err := measure(w, p, tracing, time.Duration(*seconds*float64(time.Second)), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	sum := summarize(w, *seed, reps, tracing, golden, stderr)
	fmt.Fprintf(stdout, "# %s %s/%s nproc=%d gomaxprocs=%d workers=%d seed=%d reps=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		p.workers, *seed, len(reps))
	declared := endToEnd
	if tracing {
		declared = perLayer
		path := *spansPath
		if path == "" {
			path = filepath.Join(*dir, "spans-"+w.name+".json")
		}
		if err := writeSpans(path, w, *seed, p.workers, reps); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	out := result{Correct: sum.failed == 0, Attempted: sum.attempted, Failed: sum.failed, Metrics: map[string]metricValue{}}
	for _, m := range declared {
		if v, ok := sum.values[m.name]; ok {
			printMetric(stdout, w.name, m.name, v, m.unit)
			out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	if tracing {
		var extras []string
		for name := range sum.values {
			if _, ok := extraUnits[name]; ok {
				extras = append(extras, name)
			}
		}
		sort.Strings(extras)
		for _, name := range extras {
			printMetric(stdout, w.name, name, sum.values[name], extraUnits[name])
		}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	if len(out.Metrics) < len(declared) {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d metrics measured\n", w.name, len(out.Metrics), len(declared))
		return 1
	}
	return 0
}

func printMetric(w io.Writer, workload, name string, v float64, unit string) {
	fmt.Fprintf(w, "%s %s %s %s\n", workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repResult is one child process's rep as the parent saw it.
type repResult struct {
	traced    bool
	out       outcome
	maxRSSMiB float64
	failure   string
}

// measure starts one child process per rep, one at a time, until the
// budget has passed and at least minReps have run. In trace mode reps
// alternate untraced and traced, starting untraced.
func measure(w workload, p repParams, tracing bool, budget time.Duration, stderr io.Writer) ([]repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	var reps []repResult
	for i := 0; (i < minReps || time.Since(start) < budget) && ctx.Err() == nil; i++ {
		p.traced = tracing && i%2 == 1
		reps = append(reps, runChild(ctx, exe, w, p, stderr))
	}
	return reps, nil
}

func runChild(ctx context.Context, exe string, w workload, p repParams, stderr io.Writer) repResult {
	r := repResult{traced: p.traced}
	cmd := exec.CommandContext(ctx, exe, "--child", "--workload", w.name,
		"--seed", strconv.FormatUint(p.seed, 10), "--workdir", p.dir,
		"--traced="+strconv.FormatBool(p.traced))
	cmd.Stderr = stderr
	raw, err := cmd.Output()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.maxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		r.failure = fmt.Sprintf("rep process: %v", err)
		return r
	}
	if err := json.Unmarshal(raw, &r.out); err != nil {
		r.failure = fmt.Sprintf("rep output: %v", err)
		return r
	}
	r.failure = r.out.Failure
	return r
}

type summary struct {
	attempted, failed int
	values            map[string]float64
}

// summarize checks every rep's fingerprint against the golden one (for
// the default seed) or the first rep that passed its own checks, counts
// failures, and reduces the reps that passed to one value per metric.
//
// Every rep of a run does the same work on the same input, and on a
// shared host other tenants only ever slow a rep down, by up to half
// again in bursts lasting seconds. So a time is the fastest rep's, the
// least disturbed measurement, while sizes, which load does not move,
// are medians. The per-layer values all come from the fastest traced
// rep, so that they still add up to its run_s.
func summarize(w workload, seed uint64, reps []repResult, tracing bool, golden map[string]string, stderr io.Writer) summary {
	want := ""
	if seed == defaultSeed {
		want = golden[w.name]
	}
	for _, r := range reps {
		if want == "" && r.failure == "" {
			want = r.out.Fingerprint
		}
	}
	s := summary{attempted: len(reps), values: map[string]float64{}}
	var setup, run, audit, rss, retained []float64
	var transfers int
	var fastestTraced *outcome
	for i, r := range reps {
		if r.failure == "" && r.out.Fingerprint != want {
			r.failure = fmt.Sprintf("fingerprint %q, want %q", r.out.Fingerprint, want)
		}
		if r.failure != "" {
			s.failed++
			fmt.Fprintf(stderr, "benchmark: %s rep %d failed: %s\n", w.name, i, r.failure)
			continue
		}
		o := r.out
		fmt.Fprintf(stderr, "benchmark: %s rep %d traced=%t run_s=%.4f audit_s=%.4f peak_rss_mib=%.1f\n",
			w.name, i, r.traced, o.RunS, o.AuditS, r.maxRSSMiB)
		if r.traced {
			if fastestTraced == nil || o.RunS < fastestTraced.RunS {
				fastestTraced = &reps[i].out
			}
			continue
		}
		setup = append(setup, o.SetupS...)
		run = append(run, o.RunS)
		audit = append(audit, o.AuditS)
		rss = append(rss, r.maxRSSMiB)
		retained = append(retained, o.RetainedMiB)
		transfers = o.Transfers
	}
	if len(run) > 0 {
		s.values["setup_s"] = slices.Min(setup)
		s.values["run_s"] = slices.Min(run)
		s.values["transfers_per_s"] = float64(transfers) / slices.Min(run)
		s.values["audit_s"] = slices.Min(audit)
		s.values["peak_rss_mib"] = median(rss)
		s.values["retained_mib"] = median(retained)
	}
	if fastestTraced != nil {
		for name, v := range fastestTraced.Layers {
			s.values[name] = v
		}
		if len(run) > 0 {
			s.values["trace_overhead_frac"] = fastestTraced.RunS/slices.Min(run) - 1
		}
	}
	for name, v := range s.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(s.values, name)
		}
	}
	return s
}

// writeSpans writes the traced reps' spans, tagged with workload and
// rep, as one JSON document.
func writeSpans(path string, w workload, seed uint64, workers int, reps []repResult) error {
	doc := struct {
		Workload   string `json:"workload"`
		Seed       uint64 `json:"seed"`
		GoVersion  string `json:"go_version"`
		NProc      int    `json:"nproc"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Workers    int    `json:"workers"`
		Spans      []span `json:"spans"`
	}{w.name, seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, []span{}}
	for i, r := range reps {
		for _, sp := range r.out.Spans {
			sp.Workload, sp.Rep = w.name, i
			doc.Spans = append(doc.Spans, sp)
		}
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
