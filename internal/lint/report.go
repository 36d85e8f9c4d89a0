package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// A Reporter collects findings for one rule across many packages at
// once. Per-package analyzers get a Pass from RunAnalyzers; the
// whole-module shard-purity analysis instead builds one Reporter over
// every loaded package, because its findings are properties of the
// cross-package call graph rather than of any single file.
// Suppression semantics are identical to Pass.Reportf: a //lint:<rule>
// comment on the finding's line or the line above silences it.
type Reporter struct {
	fset     *token.FileSet
	rule     string
	suppress map[string]map[int]string
	findings []Finding
}

// NewReporter indexes every package's suppression comments for the
// given rule and returns an empty reporter.
func NewReporter(fset *token.FileSet, rule string, pkgs []*Package) *Reporter {
	merged := make(map[string]map[int]string)
	for _, pkg := range pkgs {
		for file, lines := range suppressionIndex(fset, pkg.Files) {
			if merged[file] == nil {
				merged[file] = lines
				continue
			}
			for line, word := range lines {
				merged[file][line] = word
			}
		}
	}
	return &Reporter{fset: fset, rule: rule, suppress: merged}
}

// Suppressed reports whether a //lint:<rule> comment covers pos (same
// line or the line above). Analyses that accept a whole chain of
// consequences from one annotated declaration use this directly.
func (r *Reporter) Suppressed(pos token.Pos) bool {
	position := r.fset.Position(pos)
	lines := r.suppress[position.Filename]
	if lines == nil {
		return false
	}
	return lines[position.Line] == r.rule || lines[position.Line-1] == r.rule
}

// Reportf records a finding at pos unless a suppression covers it.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	if r.Suppressed(pos) {
		return
	}
	position := r.fset.Position(pos)
	r.findings = append(r.findings, Finding{
		Pos:  position,
		File: position.Filename,
		Line: position.Line,
		Col:  position.Column,
		Rule: r.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Findings returns the collected findings sorted by position.
func (r *Reporter) Findings() []Finding {
	SortFindings(r.findings)
	return r.findings
}

// SortFindings orders findings by file, line, column, then rule — the
// canonical report order shared by RunAnalyzers and Reporter.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}
