// Command cdbench runs the repository benchmark suite and writes a
// machine-readable BENCH_<date>.json snapshot: ns/op, B/op, and
// allocs/op per benchmark, plus the speedup against the most recent
// committed snapshot. `make bench` is the canonical invocation; the
// committed snapshots give every perf-affecting PR a before/after
// record that review (and future sessions) can diff without rerunning
// anything.
//
// The suite is executed -reps times (default 5) and each benchmark
// reports its per-repetition MEDIAN, which shrugs off the one-off
// scheduling hiccups that poison a mean on shared CI machines. The
// snapshot schema is "barterdist-bench/v2", which adds the `reps`
// field and, per result, an optional `metrics` map of the benchmark's
// custom b.ReportMetric values; v1 snapshots (single run) remain
// readable as baselines.
//
// Usage:
//
//	cdbench [-bench regex] [-benchtime d] [-reps n] [-out BENCH_2006-01-02.json] [-baseline path]
//	cdbench [-cpuprofile cpu.pprof] [-memprofile mem.pprof] ...
//	cdbench -compare old.json new.json
//
// The baseline defaults to the lexicographically newest BENCH_*.json in
// the repository root other than the output file; -baseline "" skips
// the comparison.
//
// A snapshot records the core count (nproc) beside GOMAXPROCS. A
// speedup measured with more workers than cores shows contention, not
// parallel scaling, so cdbench prints "n/a (W workers on C cores)" in
// its place and records none. A benchmark's worker count is the N of a
// /wN sub-benchmark, else the -shardworkers width.
//
// -cpuprofile/-memprofile are forwarded to the underlying `go test`
// invocation on the FINAL repetition only, so profile collection never
// perturbs the reps that feed the medians. -compare skips running
// anything and prints a per-benchmark delta table (ns/op, B/op,
// allocs/op) between two committed snapshots; both v1 and v2 schemas
// are accepted on either side.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchSchema identifies the on-disk format. v2 added the Reps field
// and switched per-benchmark numbers from a single run to the median
// over Reps runs; v1 snapshots stay readable as baselines.
const benchSchema = "barterdist-bench/v2"

// report is the on-disk schema. Fields are stable: downstream tooling
// keys on Schema.
type report struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// NumCPU is runtime.NumCPU on the measuring host; 0 in snapshots
	// that predate it.
	NumCPU int `json:"nproc,omitempty"`
	// ShardWorkers is the tick-core worker width the suite ran under
	// (the BARTERDIST_SHARD_WORKERS the shard-sensitive benchmarks
	// read); shard-scaling numbers are only interpretable next to it
	// and to GoMaxProcs. 0 means the benchmarks' own defaults.
	ShardWorkers int      `json:"shard_workers,omitempty"`
	BenchArgs    []string `json:"bench_args"`
	// Reps is how many times the suite ran; each result is the median.
	Reps     int    `json:"reps"`
	Baseline string `json:"baseline,omitempty"`
	// Warnings flags conditions that make the numbers suspect (noisy
	// host, degenerate medians); tooling should surface them next to any
	// delta computed from this snapshot.
	Warnings []string `json:"warnings,omitempty"`
	Results  []result `json:"results"`
}

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics holds the benchmark's b.ReportMetric values by unit (e.g.
	// "B/pair", "transfers/s"), each the median over reps; absent from
	// snapshots that predate it and from benchmarks that report none.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// SpeedupVsBaseline is baseline_ns / ns for the same benchmark
	// name; 0 when no baseline entry exists or the benchmark ran with
	// more workers than cores.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

func main() {
	var (
		bench      = flag.String("bench", ".", "benchmark regex passed to go test -bench")
		benchtime  = flag.String("benchtime", "", "passed to go test -benchtime when non-empty")
		reps       = flag.Int("reps", 5, "suite repetitions; reported numbers are per-benchmark medians")
		out        = flag.String("out", "", "output path (default BENCH_<today>.json in the repo root)")
		baseline   = flag.String("baseline", "auto", `baseline snapshot: "auto" picks the newest BENCH_*.json, "" disables`)
		cpuprofile = flag.String("cpuprofile", "", "forward -cpuprofile to go test on the final repetition")
		memprofile = flag.String("memprofile", "", "forward -memprofile to go test on the final repetition")
		compare    = flag.Bool("compare", false, "compare two snapshots: cdbench -compare old.json new.json")
		shardW     = flag.Int("shardworkers", 0, "tick-core worker width for shard-sensitive benchmarks (sets BARTERDIST_SHARD_WORKERS; 0 = benchmark defaults)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "cdbench: -compare needs exactly two snapshot paths: old.json new.json")
			os.Exit(2)
		}
		if err := compareSnapshots(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "cdbench:", err)
			os.Exit(1)
		}
		return
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "cdbench: -reps %d must be >= 1\n", *reps)
		os.Exit(2)
	}

	outPath := *out
	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "."}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	var runs [][]result
	for r := 0; r < *reps; r++ {
		repArgs := args
		if r == *reps-1 {
			// Profiles come from the final repetition only, so profile
			// collection can never perturb the reps feeding the medians.
			if *cpuprofile != "" {
				repArgs = append(repArgs, "-cpuprofile", *cpuprofile)
			}
			if *memprofile != "" {
				repArgs = append(repArgs, "-memprofile", *memprofile)
			}
		}
		fmt.Fprintf(os.Stderr, "cdbench: rep %d/%d: go %s\n", r+1, *reps, strings.Join(repArgs, " "))
		cmd := exec.Command("go", repArgs...)
		if *shardW > 0 {
			cmd.Env = append(os.Environ(), fmt.Sprintf("BARTERDIST_SHARD_WORKERS=%d", *shardW))
		}
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbench: benchmark run failed: %v\n%s", err, raw)
			os.Exit(1)
		}
		results, err := parseBenchOutput(string(raw))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdbench:", err)
			os.Exit(1)
		}
		runs = append(runs, results)
	}
	results := medianResults(runs)
	warnings := hostWarnings(runs, *reps)
	if *shardW > runtime.GOMAXPROCS(0) {
		// Oversubscribed lanes time-slice one another, so wall-clock
		// deltas measure contention, not shard scaling.
		warnings = append(warnings,
			fmt.Sprintf("shardworkers=%d exceeds GOMAXPROCS=%d: shard-scaling numbers measure oversubscription, not parallel speedup",
				*shardW, runtime.GOMAXPROCS(0)))
	}

	basePath := *baseline
	if basePath == "auto" {
		basePath = newestSnapshot(".", outPath)
	}

	rep := report{
		Schema:       benchSchema,
		Date:         time.Now().Format("2006-01-02"),
		GoVersion:    runtime.Version(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		ShardWorkers: *shardW,
		BenchArgs:    args,
		Reps:         *reps,
		Baseline:     basePath,
		Warnings:     warnings,
		Results:      results,
	}
	if basePath != "" {
		base, err := loadSnapshot(basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbench: baseline %s: %v\n", basePath, err)
			os.Exit(1)
		}
		rep.applyBaseline(base)
	}
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "cdbench: warning: %s\n", w)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "cdbench:", err)
		os.Exit(1)
	}
	printSummary(os.Stdout, &rep)
	fmt.Fprintf(os.Stderr, "cdbench: wrote %s (%d benchmarks)\n", outPath, len(results))
}

// hostWarnings inspects the per-repetition samples for signs that the
// host was noisy while the suite ran. The heuristic is rep-to-rep
// spread: a dedicated machine keeps the same benchmark within a few
// percent across repetitions, so any benchmark whose fastest and
// slowest rep differ by more than 25% earns the snapshot a warning.
// reps == 1 is always flagged — a single sample has no median.
func hostWarnings(runs [][]result, reps int) []string {
	var warnings []string
	if reps < 2 {
		warnings = append(warnings, "reps=1: single-sample snapshot, medians are degenerate; prefer -reps >= 3")
	}
	const spreadLimit = 1.25
	worstName, worstSpread := "", 0.0
	samples := make(map[string][]float64)
	var order []string
	for _, run := range runs {
		for _, r := range run {
			if _, seen := samples[r.Name]; !seen {
				order = append(order, r.Name)
			}
			samples[r.Name] = append(samples[r.Name], r.NsPerOp)
		}
	}
	for _, name := range order {
		ns := samples[name]
		if len(ns) < 2 {
			continue
		}
		lo, hi := ns[0], ns[0]
		for _, v := range ns[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo > 0 && hi/lo > worstSpread {
			worstName, worstSpread = name, hi/lo
		}
	}
	if worstSpread > spreadLimit {
		warnings = append(warnings,
			fmt.Sprintf("noisy host: %s varied %.0f%% between repetitions; treat deltas below that spread as noise",
				worstName, (worstSpread-1)*100))
	}
	return warnings
}

// compareSnapshots prints a per-benchmark delta table between two
// snapshots. Both v1 (single-run) and v2 (median) schemas are accepted;
// the table keys on benchmark name and follows the new snapshot's
// order, with old-only benchmarks appended at the end.
func compareSnapshots(w io.Writer, oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return fmt.Errorf("old snapshot %s: %w", oldPath, err)
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return fmt.Errorf("new snapshot %s: %w", newPath, err)
	}
	oldBy := make(map[string]result, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}
	width := len("benchmark")
	for _, r := range newRep.Results {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}
	for _, r := range oldRep.Results {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}
	fmt.Fprintf(w, "%s (%s) -> %s (%s)\n", filepath.Base(oldPath), oldRep.Schema, filepath.Base(newPath), newRep.Schema)
	for _, rep := range []*report{oldRep, newRep} {
		fmt.Fprintf(w, "  %s: %s\n", rep.Date, rep.hostLine())
		for _, warn := range rep.Warnings {
			fmt.Fprintf(w, "  warning: %s\n", warn)
		}
	}
	fmt.Fprintf(w, "%-*s  %28s  %26s  %22s\n", width, "benchmark", "ns/op", "B/op", "allocs/op")
	delta := func(old, new float64) string {
		if old == 0 {
			return "      n/a"
		}
		return fmt.Sprintf("%+8.1f%%", (new-old)/old*100)
	}
	seen := make(map[string]bool, len(newRep.Results))
	for _, n := range newRep.Results {
		seen[n.Name] = true
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(w, "%-*s  %17.0f (new)\n", width, n.Name, n.NsPerOp)
			continue
		}
		nsDelta := delta(o.NsPerOp, n.NsPerOp)
		for _, rep := range []*report{oldRep, newRep} {
			if note := rep.oversubscribed(n.Name); note != "" {
				nsDelta = note
			}
		}
		fmt.Fprintf(w, "%-*s  %8.0f->%-8.0f %s  %7d->%-7d %s  %5d->%-5d %s\n",
			width, n.Name,
			o.NsPerOp, n.NsPerOp, nsDelta,
			o.BytesPerOp, n.BytesPerOp, delta(float64(o.BytesPerOp), float64(n.BytesPerOp)),
			o.AllocsPerOp, n.AllocsPerOp, delta(float64(o.AllocsPerOp), float64(n.AllocsPerOp)))
	}
	for _, o := range oldRep.Results {
		if !seen[o.Name] {
			fmt.Fprintf(w, "%-*s  %17.0f (removed)\n", width, o.Name, o.NsPerOp)
		}
	}
	return nil
}

// loadReport reads a full snapshot. Schema v1 lacks reps/warnings;
// json's zero values cover it, so v1 and v2 load identically.
func loadReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(rep.Schema, "barterdist-bench/") {
		return nil, fmt.Errorf("unrecognized snapshot schema %q", rep.Schema)
	}
	return &rep, nil
}

// medianResults folds the per-repetition result lists into one list in
// first-appearance order, taking each benchmark's median ns/op, B/op,
// and allocs/op independently. With an even sample count the lower
// median is used, so every reported number is one that was actually
// measured.
func medianResults(runs [][]result) []result {
	var order []string
	samples := make(map[string][]result)
	for _, run := range runs {
		for _, r := range run {
			if _, seen := samples[r.Name]; !seen {
				order = append(order, r.Name)
			}
			samples[r.Name] = append(samples[r.Name], r)
		}
	}
	lowerMedian := func(v []float64) float64 {
		sort.Float64s(v)
		return v[(len(v)-1)/2]
	}
	median := func(name string) result {
		s := samples[name]
		ns := make([]float64, len(s))
		bytes := make([]int64, len(s))
		allocs := make([]int64, len(s))
		metrics := make(map[string][]float64)
		for i, r := range s {
			ns[i], bytes[i], allocs[i] = r.NsPerOp, r.BytesPerOp, r.AllocsPerOp
			for unit, v := range r.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
		sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
		mid := (len(s) - 1) / 2
		out := result{Name: name, NsPerOp: lowerMedian(ns), BytesPerOp: bytes[mid], AllocsPerOp: allocs[mid]}
		for unit, v := range metrics {
			if out.Metrics == nil {
				out.Metrics = make(map[string]float64, len(metrics))
			}
			out.Metrics[unit] = lowerMedian(v)
		}
		return out
	}
	out := make([]result, 0, len(order))
	for _, name := range order {
		out = append(out, median(name))
	}
	return out
}

// parseBenchOutput extracts one result per "Benchmark..." line of `go
// test -bench -benchmem` output. The trailing -N GOMAXPROCS suffix is
// stripped so names are stable across machines.
func parseBenchOutput(out string) ([]result, error) {
	var results []result
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		r, ok := parseBenchLine(line)
		if !ok {
			return nil, fmt.Errorf("unparseable benchmark line: %q", line)
		}
		results = append(results, r)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output")
	}
	return results, nil
}

// parseBenchLine parses a single benchmark result line, e.g.
//
//	BenchmarkFig3_TvsN-8   508   4736680 ns/op   63010 B/op   1017 allocs/op
//
// Every value is read as a float: b.ReportMetric values may be
// fractional, and units other than ns/op, B/op and allocs/op land in
// Metrics.
func parseBenchLine(line string) (result, bool) {
	fields := strings.Fields(line)
	// name iters ns "ns/op" [bytes "B/op" allocs "allocs/op"]
	if len(fields) < 4 || fields[3] != "ns/op" {
		return result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, NsPerOp: ns}
	rest := fields[4:]
	for ; len(rest) >= 2; rest = rest[2:] {
		v, err := strconv.ParseFloat(rest[0], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := rest[1]; unit {
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// newestSnapshot returns the lexicographically greatest BENCH_*.json in
// dir other than exclude (the date format makes lexicographic ==
// chronological), or "".
func newestSnapshot(dir, exclude string) string {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		return ""
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if filepath.Base(matches[i]) != filepath.Base(exclude) {
			return matches[i]
		}
	}
	return ""
}

func loadSnapshot(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, err
	}
	base := make(map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		base[r.Name] = r.NsPerOp
	}
	return base, nil
}

// cores is how many cores the suite could use at once: the smaller of
// the core count and GOMAXPROCS. Snapshots without nproc fall back to
// GOMAXPROCS.
func (r *report) cores() int {
	if r.NumCPU > 0 && r.NumCPU < r.GoMaxProcs {
		return r.NumCPU
	}
	return r.GoMaxProcs
}

// workers is the worker count benchmark name ran at: the N of a /wN
// sub-benchmark, else the suite's shard width (0 = the benchmark's own
// default).
func (r *report) workers(name string) int {
	for _, part := range strings.Split(name, "/")[1:] {
		if n, ok := strings.CutPrefix(part, "w"); ok {
			if w, err := strconv.Atoi(n); err == nil {
				return w
			}
		}
	}
	return r.ShardWorkers
}

// oversubscribed returns "n/a (W workers on C cores)" when benchmark
// name ran with more workers than cores — its speedup would measure
// contention — and "" otherwise.
func (r *report) oversubscribed(name string) string {
	if w, c := r.workers(name), r.cores(); w > c {
		return fmt.Sprintf("n/a (%d workers on %d cores)", w, c)
	}
	return ""
}

// hostLine is the snapshot's host header: GOMAXPROCS, core count, and
// shard width.
func (r *report) hostLine() string {
	nproc := "?"
	if r.NumCPU > 0 {
		nproc = strconv.Itoa(r.NumCPU)
	}
	return fmt.Sprintf("gomaxprocs=%d nproc=%s shardworkers=%d", r.GoMaxProcs, nproc, r.ShardWorkers)
}

// applyBaseline sets each result's speedup against the baseline's
// ns/op, except where the benchmark ran with more workers than cores.
func (r *report) applyBaseline(base map[string]float64) {
	for i := range r.Results {
		res := &r.Results[i]
		if b, ok := base[res.Name]; ok && res.NsPerOp > 0 && r.oversubscribed(res.Name) == "" {
			res.SpeedupVsBaseline = b / res.NsPerOp
		}
	}
}

func printSummary(w io.Writer, rep *report) {
	fmt.Fprintf(w, "# %s %s\n", rep.GoVersion, rep.hostLine())
	width := 0
	for _, r := range rep.Results {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}
	for _, r := range rep.Results {
		fmt.Fprintf(w, "%-*s  %14.0f ns/op  %8d allocs/op", width, r.Name, r.NsPerOp, r.AllocsPerOp)
		if note := rep.oversubscribed(r.Name); note != "" && rep.Baseline != "" {
			fmt.Fprintf(w, "  %s", note)
		} else if r.SpeedupVsBaseline > 0 {
			fmt.Fprintf(w, "  %5.2fx vs %s", r.SpeedupVsBaseline, filepath.Base(rep.Baseline))
		}
		fmt.Fprintln(w)
	}
}
