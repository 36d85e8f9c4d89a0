package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkFig3_TvsN-8 \t 508\t   4736680 ns/op\t   63010 B/op\t    1017 allocs/op")
	if !ok {
		t.Fatal("line should parse")
	}
	if r.Name != "BenchmarkFig3_TvsN" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped)", r.Name)
	}
	if r.NsPerOp != 4736680 || r.BytesPerOp != 63010 || r.AllocsPerOp != 1017 {
		t.Errorf("parsed %+v", r)
	}
	// No -N suffix (GOMAXPROCS=1) and no -benchmem columns.
	r, ok = parseBenchLine("BenchmarkX 100 250.5 ns/op")
	if !ok || r.Name != "BenchmarkX" || r.NsPerOp != 250.5 {
		t.Errorf("minimal line: ok=%v r=%+v", ok, r)
	}
	// Name with an embedded dash that is not a GOMAXPROCS suffix.
	r, ok = parseBenchLine("BenchmarkA-b 10 5 ns/op")
	if !ok || r.Name != "BenchmarkA-b" {
		t.Errorf("dash name: ok=%v r=%+v", ok, r)
	}
	if _, ok := parseBenchLine("BenchmarkBroken 12 nonsense"); ok {
		t.Error("malformed line should not parse")
	}
}

// Custom b.ReportMetric values — fractional or integral — parse into
// Metrics instead of failing the line or vanishing.
func TestParseBenchLineCustomMetrics(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkPairLedger/pairs=1M-2 \t 3\t 412345678 ns/op\t 13.71 B/pair\t 50331712 B/op\t 24 allocs/op")
	if !ok {
		t.Fatal("fractional custom metric must not drop the line")
	}
	if r.Name != "BenchmarkPairLedger/pairs=1M" || r.BytesPerOp != 50331712 || r.AllocsPerOp != 24 {
		t.Errorf("parsed %+v", r)
	}
	if got := r.Metrics["B/pair"]; got != 13.71 {
		t.Errorf("B/pair = %v, want 13.71", got)
	}
	r, ok = parseBenchLine("BenchmarkAsimAudit-2 \t 6\t 191300000 ns/op\t 5817735 transfers/s\t 13300000 B/op\t 14360 allocs/op")
	if !ok || r.Metrics["transfers/s"] != 5817735 || r.BytesPerOp != 13300000 {
		t.Errorf("integer custom metric: ok=%v r=%+v", ok, r)
	}
	out := medianResults([][]result{
		{r}, {{Name: r.Name, Metrics: map[string]float64{"transfers/s": 1}}}, {{Name: r.Name, Metrics: map[string]float64{"transfers/s": 2}}},
	})
	if got := out[0].Metrics["transfers/s"]; got != 2 {
		t.Errorf("median transfers/s = %v, want 2", got)
	}
}

func TestParseBenchOutputAndBaseline(t *testing.T) {
	out := `goos: linux
BenchmarkA-8 	 100	 2000 ns/op	 64 B/op	 2 allocs/op
BenchmarkB-8 	 100	 500 ns/op	 0 B/op	 0 allocs/op
PASS
`
	results, err := parseBenchOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	(&report{GoMaxProcs: 8, NumCPU: 8, Results: results}).applyBaseline(map[string]float64{"BenchmarkA": 4000})
	if results[0].SpeedupVsBaseline != 2 {
		t.Errorf("speedup = %v, want 2", results[0].SpeedupVsBaseline)
	}
	if results[1].SpeedupVsBaseline != 0 {
		t.Errorf("missing baseline entry must leave speedup 0, got %v", results[1].SpeedupVsBaseline)
	}
	if _, err := parseBenchOutput("PASS\n"); err == nil {
		t.Error("empty benchmark output should error")
	}
}

func TestMedianResults(t *testing.T) {
	runs := [][]result{
		{{Name: "BenchmarkA", NsPerOp: 300, BytesPerOp: 64, AllocsPerOp: 2}, {Name: "BenchmarkB", NsPerOp: 10}},
		{{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 80, AllocsPerOp: 2}, {Name: "BenchmarkB", NsPerOp: 30}},
		{{Name: "BenchmarkA", NsPerOp: 200, BytesPerOp: 72, AllocsPerOp: 2}, {Name: "BenchmarkB", NsPerOp: 20}},
	}
	out := medianResults(runs)
	if len(out) != 2 || out[0].Name != "BenchmarkA" || out[1].Name != "BenchmarkB" {
		t.Fatalf("order/len wrong: %+v", out)
	}
	if out[0].NsPerOp != 200 || out[0].BytesPerOp != 72 || out[0].AllocsPerOp != 2 {
		t.Errorf("BenchmarkA median = %+v", out[0])
	}
	if out[1].NsPerOp != 20 {
		t.Errorf("BenchmarkB median ns = %v, want 20", out[1].NsPerOp)
	}
	// Even sample count: the lower median (an actually measured value).
	out = medianResults(runs[:2])
	if out[0].NsPerOp != 100 {
		t.Errorf("even-count lower median = %v, want 100", out[0].NsPerOp)
	}
	// A benchmark present in only some runs still aggregates.
	runs[2] = append(runs[2], result{Name: "BenchmarkC", NsPerOp: 7})
	out = medianResults(runs)
	if len(out) != 3 || out[2].Name != "BenchmarkC" || out[2].NsPerOp != 7 {
		t.Errorf("partial benchmark: %+v", out)
	}
}

func TestNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2026-01-01.json", "BENCH_2026-03-01.json", "BENCH_2026-02-01.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := newestSnapshot(dir, "BENCH_2026-03-15.json")
	if filepath.Base(got) != "BENCH_2026-03-01.json" {
		t.Errorf("newest = %q", got)
	}
	// The output file itself must never be its own baseline.
	got = newestSnapshot(dir, "BENCH_2026-03-01.json")
	if filepath.Base(got) != "BENCH_2026-02-01.json" {
		t.Errorf("newest excluding self = %q", got)
	}
	if newestSnapshot(t.TempDir(), "x.json") != "" {
		t.Error("empty dir should yield no baseline")
	}
}

// TestWorkersAndCores pins how a benchmark's worker count and the
// host's usable cores are derived, including snapshots without nproc.
func TestWorkersAndCores(t *testing.T) {
	rep := &report{GoMaxProcs: 8, NumCPU: 2, ShardWorkers: 4}
	if c := rep.cores(); c != 2 {
		t.Errorf("cores = %d, want min(nproc, gomaxprocs) = 2", c)
	}
	if c := (&report{GoMaxProcs: 1, NumCPU: 2}).cores(); c != 1 {
		t.Errorf("cores = %d, want 1 under GOMAXPROCS=1", c)
	}
	if c := (&report{GoMaxProcs: 4}).cores(); c != 4 {
		t.Errorf("cores without nproc = %d, want gomaxprocs 4", c)
	}
	for name, want := range map[string]int{
		"BenchmarkAuditReplay/w8":    8,
		"BenchmarkAuditReplay/w1":    1,
		"BenchmarkScale20kCredit":    4, // the suite's shard width
		"BenchmarkX/wide":            4,
		"Benchmarkw3":                4,
		"BenchmarkNested/size/w2/ok": 2,
	} {
		if got := rep.workers(name); got != want {
			t.Errorf("workers(%q) = %d, want %d", name, got, want)
		}
	}
}

// TestOversubscribedSpeedupIsNA: a speedup whose worker count exceeds
// the core count is neither recorded nor printed; the summary says
// "n/a (W workers on C cores)" instead, and the header carries nproc
// beside gomaxprocs.
func TestOversubscribedSpeedupIsNA(t *testing.T) {
	rep := &report{
		GoVersion: "go1.x", GoMaxProcs: 2, NumCPU: 2, Baseline: "BENCH_old.json",
		Results: []result{
			{Name: "BenchmarkAuditReplay/w1", NsPerOp: 100},
			{Name: "BenchmarkAuditReplay/w8", NsPerOp: 50},
		},
	}
	rep.applyBaseline(map[string]float64{
		"BenchmarkAuditReplay/w1": 300, "BenchmarkAuditReplay/w8": 300,
	})
	if s := rep.Results[0].SpeedupVsBaseline; s != 3 {
		t.Errorf("w1 speedup = %v, want 3", s)
	}
	if s := rep.Results[1].SpeedupVsBaseline; s != 0 {
		t.Errorf("w8 on 2 cores recorded speedup %v, want none", s)
	}
	var buf bytes.Buffer
	printSummary(&buf, rep)
	out := buf.String()
	for _, want := range []string{
		"# go1.x gomaxprocs=2 nproc=2 shardworkers=0\n",
		"3.00x vs BENCH_old.json",
		"n/a (8 workers on 2 cores)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "x vs ") != 1 {
		t.Errorf("summary prints a speedup for the oversubscribed benchmark:\n%s", out)
	}
	if got := (&report{GoMaxProcs: 2}).hostLine(); got != "gomaxprocs=2 nproc=? shardworkers=0" {
		t.Errorf("host line without nproc = %q", got)
	}
}

// TestCompareMarksOversubscribedDeltas: -compare prints each snapshot's
// host line and replaces the ns/op delta of a benchmark that either
// side ran with more workers than cores.
func TestCompareMarksOversubscribedDeltas(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep report) string {
		rep.Schema = benchSchema
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	results := []result{{Name: "BenchmarkA/w1", NsPerOp: 100}, {Name: "BenchmarkA/w8", NsPerOp: 100}}
	oldPath := write("old.json", report{Date: "d1", GoMaxProcs: 1, Results: results})
	newPath := write("new.json", report{Date: "d2", GoMaxProcs: 2, NumCPU: 2, Results: results})
	var buf bytes.Buffer
	if err := compareSnapshots(&buf, oldPath, newPath); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"d1: gomaxprocs=1 nproc=? shardworkers=0",
		"d2: gomaxprocs=2 nproc=2 shardworkers=0",
		"n/a (8 workers on 2 cores)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "+0.0%") {
		t.Errorf("w1 delta missing:\n%s", out)
	}
}
