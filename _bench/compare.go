package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchMetric is an end-to-end metric as BENCHMARK.json declares it.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares two sets of runs. Each file holds the metric
// lines of any number of runs ("workload metric value unit", as run
// prints them). For every workload and metric it prints both medians
// with their quartiles and the change; end-to-end metrics also get a
// verdict against their bound in BENCHMARK.json, per-layer metrics
// none.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with each end-to-end metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [--bench BENCHMARK.json] old.txt new.txt")
		return 2
	}
	defs, err := loadBenchMetrics(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 1
	}
	var runs [2]map[[2]string][]float64
	for i := range runs {
		if runs[i], err = readMetricLines(fs.Arg(i)); err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return 1
		}
	}
	keys := map[[2]string]bool{}
	for _, r := range runs {
		for k := range r {
			keys[k] = true
		}
	}
	sorted := make([][2]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	fmt.Fprintf(stdout, "%-16s %-26s %-32s %-32s %8s  %s\n", "workload", "metric", "old median [q1, q3] n", "new median [q1, q3] n", "change", "verdict")
	for _, k := range sorted {
		old, cur := runs[0][k], runs[1][k]
		if len(old) == 0 || len(cur) == 0 {
			fmt.Fprintf(stdout, "%-16s %-26s only in one set\n", k[0], k[1])
			continue
		}
		oq1, om, oq3 := quartiles(old)
		nq1, nm, nq3 := quartiles(cur)
		verdict := ""
		if d, ok := defs[k[1]]; ok {
			verdict = judge(d, old, cur)
		}
		fmt.Fprintf(stdout, "%-16s %-26s %-32s %-32s %+7.1f%%  %s\n", k[0], k[1],
			fmt.Sprintf("%.4g [%.4g, %.4g] %d", om, oq1, oq3, len(old)),
			fmt.Sprintf("%.4g [%.4g, %.4g] %d", nm, nq1, nq3, len(cur)),
			100*(nm-om)/om, verdict)
	}
	return 0
}

// judge grades an end-to-end metric by the benchmark's rule: a change
// worse by more than the bound regressed; a spread (quartile distance
// over median) wider than the bound leaves the result unresolved unless
// every new run beats every old one; a change better by more than the
// old runs' spread improved.
func judge(d benchMetric, old, cur []float64) string {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(cur)
	sign := 1.0 // worse is positive
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * (nm - om) / om
	oldSpread := (oq3 - oq1) / om
	allBetter := true
	for _, o := range old {
		for _, n := range cur {
			if sign*(n-o) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && -worse > oldSpread:
		return "improved"
	case oldSpread > d.Bound || (nq3-nq1)/nm > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	case -worse > oldSpread:
		return "improved"
	default:
		return "within bound"
	}
}

func loadBenchMetrics(path string) (map[string]benchMetric, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []benchMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := map[string]benchMetric{}
	for _, d := range doc.EndToEnd {
		defs[d.Name] = d
	}
	return defs, nil
}

// readMetricLines collects the values of every "workload metric value
// unit" line in path, by workload and metric; other lines are skipped.
func readMetricLines(path string) (map[[2]string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[[2]string][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		k := [2]string{fields[0], fields[1]}
		out[k] = append(out[k], v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}
