package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
)

// BaselineFile is the committed baseline's file name at the module
// root.
const BaselineFile = "ANALYSIS.json"

// Report is one gate run's result and cmd/cdvet's -json shape: the
// baseline sections as computed from the tree, plus the findings and
// baseline drift that decide the exit status.
type Report struct {
	Schema    string        `json:"schema"`
	GoVersion string        `json:"go_version,omitempty"`
	Purity    *PurityReport `json:"purity,omitempty"`
	Escape    *EscapeReport `json:"escape,omitempty"`
	Findings  []Finding     `json:"findings"`
	Drift     []string      `json:"drift"`

	// Packages counts the packages loaded. Warnings are the loader's
	// non-fatal degradations (test files dropped to break a cycle).
	Packages int      `json:"-"`
	Warnings []string `json:"-"`
}

// moduleRun is what a whole-module analysis sees: the module loaded
// once, and the report it fills in.
type moduleRun struct {
	root, path string
	fset       *token.FileSet
	pkgs       []*Package
	report     *Report
}

// Gate is the static gate: it loads the module rooted at root once,
// runs the per-package rules over every package each rule does not
// exempt, then the whole-module analyses (shard purity, then the
// -gcflags=-m escape build), and compares the purity and escape
// sections against the committed baseline. A run of a subset of the
// rules compares only the sections it computed. With update set, Gate
// rewrites the baseline from the tree instead, which needs both
// sections. includeTests adds _test.go files to the analyzed packages.
func Gate(root string, rules []*Analyzer, includeTests, update bool) (*Report, error) {
	if update && !(selected(rules, "shard-purity") && selected(rules, "escape-gate")) {
		return nil, fmt.Errorf("lint: updating the baseline needs both shard-purity and escape-gate")
	}
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	loader.IncludeTests = includeTests
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	report := &Report{Schema: BaselineSchema, Drift: []string{}, Packages: len(pkgs), Warnings: loader.Warnings}
	report.Findings = append([]Finding{}, RunAnalyzers(loader.Fset, pkgs, rules)...)
	m := &moduleRun{root: loader.moduleRoot, path: loader.ModulePath(), fset: loader.Fset, pkgs: pkgs, report: report}
	for _, a := range rules {
		if a.module == nil {
			continue
		}
		if err := a.module(m); err != nil {
			return nil, err
		}
	}
	SortFindings(report.Findings)

	path := filepath.Join(m.root, BaselineFile)
	switch {
	case update:
		b := NewBaseline(report.Purity, report.Escape)
		if err := b.Write(path); err != nil {
			return nil, err
		}
		report.GoVersion = b.GoVersion
	case report.Purity != nil || report.Escape != nil:
		base, err := ReadBaseline(path)
		if err != nil {
			return nil, err
		}
		report.GoVersion = base.GoVersion
		// The baseline's own copy stands in for a section this run
		// did not compute.
		purity, escape := report.Purity, report.Escape
		if purity == nil {
			purity = base.Purity
		}
		if escape == nil {
			escape = base.Escape
		}
		report.Drift = base.Compare(purity, escape)
	}
	return report, nil
}

func selected(rules []*Analyzer, name string) bool {
	for _, a := range rules {
		if a.Name == name {
			return true
		}
	}
	return false
}
