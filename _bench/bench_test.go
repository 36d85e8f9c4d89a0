package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// small shrinks a workload so that both passes of every workload run in
// a few seconds.
func small(w workload) workload {
	switch w.name {
	case "closed-credit":
		w.nodes, w.blocks = 256, 16
	case "closed-pipeline":
		w.nodes, w.blocks = 256, 32
	case "open-flash":
		w.nodes, w.blocks, w.rate, w.ckptEvery = 2001, 8, 16, 20
	case "async-bt":
		w.nodes, w.blocks, w.degree = 64, 32, 8
	}
	return w
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			p := repParams{seed: 7, workers: 2, dir: t.TempDir()}
			plain := runRep(w, p)
			if plain.Failure != "" {
				t.Fatalf("untraced rep: %s", plain.Failure)
			}
			p.traced = true
			traced := runRep(w, p)
			if traced.Failure != "" {
				t.Fatalf("traced rep: %s", traced.Failure)
			}
			if plain.Fingerprint != traced.Fingerprint {
				t.Fatalf("fingerprints differ:\nuntraced %s\ntraced   %s", plain.Fingerprint, traced.Fingerprint)
			}
			if len(plain.SetupS) != setupSamples || plain.RunS <= 0 || plain.AuditS <= 0 || plain.Transfers <= 0 {
				t.Errorf("untraced rep measured %+v", plain)
			}
			for _, m := range perLayer {
				if _, ok := traced.Layers[m.name]; !ok && m.name != "trace_overhead_frac" {
					t.Errorf("traced rep lacks %s", m.name)
				}
			}
			for name := range traced.Layers {
				if unitOf(name) == "" {
					t.Errorf("layer value %s has no unit", name)
				}
			}
			if f := traced.Layers["engine.reconciled_frac"]; w.degree == 0 && (f < 0.9 || f > 1) {
				t.Errorf("scheduler, step and checkpoint time cover %.3f of the engine wall", f)
			}
		})
	}
}

func unitOf(name string) string {
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m.name == name {
			return m.unit
		}
	}
	return extraUnits[name]
}

// TestMetricDefinitions checks names and units against the format
// BENCHMARK.json requires, and that BENCHMARK.json declares exactly the
// metrics the program reports.
func TestMetricDefinitions(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("bad or repeated metric %q (unit %q)", m.name, m.unit)
		}
		seen[m.name] = true
	}
	for name, unit := range extraUnits {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("bad or repeated layer value %q (unit %q)", name, unit)
		}
	}

	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []metric
		want []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json has %d metrics, the program %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestQuartiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{6, 1, 5, 2, 4, 3}, 1.75, 3.5, 5.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{{10, 100}, {20, 50}, {99, 50}, {100, 90}, {114, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {233000, 99.99}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pct, v := tailPercentile(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if pct != c.pct {
			t.Errorf("n=%d: percentile %v, want %v", c.n, pct, c.pct)
		}
		if pct < 100 && beyond < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it, want >= 10", c.n, pct, beyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "run", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "simulate.Run", StartNS: 10, EndNS: 90, Parent: 0},
		{Name: "Tick", StartNS: 10, EndNS: 30, Parent: 1},
		{Name: "step", StartNS: 30, EndNS: 60, Parent: 1},
		{Name: "SnapshotState", StartNS: 40, EndNS: 45, Parent: 3},
		{Name: "Tick", StartNS: 60, EndNS: 80, Parent: 1},
		{Name: "audit", StartNS: 100, EndNS: 130, Parent: -1},
	}
	want := []int64{20, 10, 20, 25, 5, 20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, i, got[i], want[i])
		}
	}
}

func TestJudge(t *testing.T) {
	lower := benchMetric{Name: "run_s", Better: "lower", Bound: 0.1}
	higher := benchMetric{Name: "transfers_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{1.00, 1.01, 1.02, 0.99, 1.00}
	for _, c := range []struct {
		d        benchMetric
		old, cur []float64
		want     string
	}{
		{lower, steady, []float64{1.03, 1.02, 1.04, 1.01, 1.03}, "within bound"},
		{lower, steady, []float64{1.20, 1.22, 1.19, 1.21, 1.20}, "regressed"},
		{lower, steady, []float64{0.80, 0.82, 0.81, 0.79, 0.80}, "improved"},
		{higher, steady, []float64{0.80, 0.82, 0.81, 0.79, 0.80}, "regressed"},
		{lower, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, []float64{1.0, 1.01, 1.0, 0.99, 1.0}, "unresolved"},
	} {
		if got := judge(c.d, c.old, c.cur); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.d.Name, c.old, c.cur, got, c.want)
		}
	}
}

// TestDoctoredGoldenFails runs a real rep at the default seed and checks
// that a golden fingerprint it does not match fails every rep.
func TestDoctoredGoldenFails(t *testing.T) {
	w := small(workloads[0])
	out := runRep(w, repParams{seed: defaultSeed, workers: 1, dir: t.TempDir()})
	if out.Failure != "" {
		t.Fatal(out.Failure)
	}
	reps := []repResult{{out: out, maxRSSMiB: 1}, {out: out, maxRSSMiB: 1}}
	if s := summarize(w, defaultSeed, reps, false, map[string]string{w.name: out.Fingerprint}, io.Discard); s.failed != 0 {
		t.Fatalf("matching golden: %d of %d reps failed", s.failed, s.attempted)
	}
	doctored := map[string]string{w.name: out.Fingerprint + "x"}
	s := summarize(w, defaultSeed, reps, false, doctored, io.Discard)
	if s.failed != s.attempted || s.attempted != 2 {
		t.Fatalf("doctored golden: %d of %d reps failed, want all", s.failed, s.attempted)
	}
	if _, ok := s.values["run_s"]; ok {
		t.Error("failed reps still feed the medians")
	}
	// Other seeds are not held to the golden fingerprint.
	if s := summarize(w, defaultSeed+1, reps, false, doctored, io.Discard); s.failed != 0 {
		t.Fatalf("seed %d: %d reps failed against the default seed's golden", defaultSeed+1, s.failed)
	}
}
