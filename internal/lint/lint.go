package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position `json:"-"`
	File string         `json:"file"`
	Line int            `json:"line"`
	Col  int            `json:"col"`
	Rule string         `json:"rule"`
	Msg  string         `json:"msg"`
}

// String renders the canonical "file:line: [rule] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
}

// An Analyzer is one named rule of the gate. A per-package rule sets
// Run and applies to every package of the module except those its
// Exempt list names; a whole-module analysis (shard purity, the escape
// gate) sets module instead and runs once over every loaded package.
type Analyzer struct {
	// Name identifies the rule in reports and in -rules selections.
	Name string
	// Doc is a one-line description of what the rule enforces.
	Doc string
	// Exempt names the packages the rule skips, each as a run of whole
	// import-path segments ("cmd", "internal/experiment"). A package
	// is exempt when its path contains one of them; an external test
	// package goes with its base package.
	Exempt []string
	// Run inspects one package and reports findings through the pass.
	Run func(p *Pass)
	// module runs a whole-module analysis into the gate's report.
	module func(m *moduleRun) error
}

// exempt reports whether the package at path is on the rule's
// exemption list.
func (a *Analyzer) exempt(path string) bool {
	segs := "/" + strings.TrimSuffix(path, "_test") + "/"
	for _, e := range a.Exempt {
		if strings.Contains(segs, "/"+e+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	*Package
	Fset     *token.FileSet
	analyzer *Analyzer
	suppress map[string]map[int]string // file -> line -> directive
	out      *[]Finding
}

// Reportf records a finding at pos unless a matching //lint:<directive>
// suppression covers that line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, directive, format string, args ...any) {
	position := p.Fset.Position(pos)
	if directive != "" && p.suppressed(position, directive) {
		return
	}
	*p.out = append(*p.out, Finding{
		Pos:  position,
		File: position.Filename,
		Line: position.Line,
		Col:  position.Column,
		Rule: p.analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether a //lint:<directive> comment sits on the
// finding's line or the line immediately above it.
func (p *Pass) suppressed(pos token.Position, directive string) bool {
	lines := p.suppress[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line] == directive || lines[pos.Line-1] == directive
}

// suppressionIndex scans a file's comments for //lint:<word> markers.
func suppressionIndex(fset *token.FileSet, files []*ast.File) map[string]map[int]string {
	idx := make(map[string]map[int]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "lint:")
				if !ok {
					continue
				}
				word := rest
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					word = rest[:i]
				}
				pos := fset.Position(c.Pos())
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = make(map[int]string)
				}
				idx[pos.Filename][pos.Line] = word
			}
		}
	}
	return idx
}

// AllAnalyzers returns every rule of the gate, sorted by name.
func AllAnalyzers() []*Analyzer {
	all := []*Analyzer{
		ConcurrencyContainmentAnalyzer(),
		ConfigValidationAnalyzer(),
		EscapeGateAnalyzer(),
		IgnoredErrorsAnalyzer(),
		MapIterationAnalyzer(),
		NoWallClockAnalyzer(),
		RNGDisciplineAnalyzer(),
		ShardPurityAnalyzer(),
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Select returns the analyzers whose names appear in the comma list, or
// all of them when the list is empty.
func Select(rules string) ([]*Analyzer, error) {
	all := AllAnalyzers()
	if strings.TrimSpace(rules) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", name, ruleNames(all))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty rule selection")
	}
	return out, nil
}

func ruleNames(all []*Analyzer) string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// RunAnalyzers applies each per-package analyzer to each package it
// does not exempt and returns the combined findings sorted by
// position. Whole-module analyses are skipped: Gate runs those.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		idx := suppressionIndex(fset, pkg.Files)
		for _, a := range analyzers {
			if a.Run == nil || a.exempt(pkg.Path) {
				continue
			}
			pass := &Pass{
				Package:  pkg,
				Fset:     fset,
				analyzer: a,
				suppress: idx,
				out:      &findings,
			}
			a.Run(pass)
		}
	}
	SortFindings(findings)
	return findings
}
