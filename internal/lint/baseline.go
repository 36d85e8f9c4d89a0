package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// BaselineSchema identifies the committed ANALYSIS.json format.
const BaselineSchema = "barterdist-analysis/v1"

// Baseline is the committed cdvet golden file (ANALYSIS.json at the
// module root): the purity map the sharding PR consumes plus the
// escape-gate statuses. `cdvet` with no flags recomputes both and
// fails on any drift; `cdvet -update` rewrites the file. GoVersion is
// recorded because escape-analysis and inlining verdicts move between
// toolchains — a version bump legitimately re-baselines.
type Baseline struct {
	Schema    string        `json:"schema"`
	GoVersion string        `json:"go_version"`
	Purity    *PurityReport `json:"purity"`
	Escape    *EscapeReport `json:"escape"`
}

// NewBaseline assembles a baseline from freshly-computed reports.
func NewBaseline(purity *PurityReport, escape *EscapeReport) *Baseline {
	return &Baseline{
		Schema:    BaselineSchema,
		GoVersion: runtime.Version(),
		Purity:    purity,
		Escape:    escape,
	}
}

// ReadBaseline loads a committed ANALYSIS.json.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lint: reading baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return nil, fmt.Errorf("lint: %s has schema %q, want %q (regenerate with cdvet -update)",
			path, b.Schema, BaselineSchema)
	}
	if b.Purity == nil || b.Escape == nil {
		return nil, fmt.Errorf("lint: %s is missing a report section (regenerate with cdvet -update)", path)
	}
	return &b, nil
}

// Write renders the baseline deterministically (sections already hold
// sorted slices) and writes it with a trailing newline so the file
// diffs cleanly.
func (b *Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("lint: encoding baseline: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("lint: writing baseline: %w", err)
	}
	return nil
}

// Compare diffs a committed baseline against freshly-computed reports,
// returning one line per drift. Purity drift and escape drift both
// fail the gate: the committed prerequisite map must describe the tree
// as it is.
func (b *Baseline) Compare(purity *PurityReport, escape *EscapeReport) []string {
	var diffs []string
	if v := runtime.Version(); b.GoVersion != v {
		diffs = append(diffs, fmt.Sprintf("baseline computed with %s, running %s (run cdvet -update)", b.GoVersion, v))
	}
	diffs = append(diffs, comparePurity(b.Purity, purity)...)
	diffs = append(diffs, CompareEscape(b.Escape, escape)...)
	sort.Strings(diffs)
	return diffs
}

// comparePurity diffs two purity reports entry-by-entry.
func comparePurity(baseline, current *PurityReport) []string {
	var diffs []string
	if fmt.Sprint(baseline.Roots) != fmt.Sprint(current.Roots) ||
		fmt.Sprint(baseline.PairingRoots) != fmt.Sprint(current.PairingRoots) {
		diffs = append(diffs, "purity: root sets changed (run cdvet -update)")
	}
	old := make(map[string]PurityFunc, len(baseline.Functions))
	for _, f := range baseline.Functions {
		old[f.Func] = f
	}
	cur := make(map[string]PurityFunc, len(current.Functions))
	for _, f := range current.Functions {
		cur[f.Func] = f
	}
	for _, f := range current.Functions {
		o, ok := old[f.Func]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("purity: %s newly reachable as %s (run cdvet -update)", f.Func, f.Class))
			continue
		}
		if o.Class != f.Class || o.Pairing != f.Pairing || o.Suppressed != f.Suppressed ||
			fmt.Sprint(o.Writes) != fmt.Sprint(f.Writes) {
			diffs = append(diffs, fmt.Sprintf("purity: %s changed %s%v -> %s%v (run cdvet -update)",
				f.Func, o.Class, o.Writes, f.Class, f.Writes))
		}
	}
	for _, f := range baseline.Functions {
		if _, ok := cur[f.Func]; !ok {
			diffs = append(diffs, fmt.Sprintf("purity: %s no longer reachable (run cdvet -update)", f.Func))
		}
	}
	return diffs
}
