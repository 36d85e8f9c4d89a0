package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseDiag(t *testing.T) {
	cases := []struct {
		line string
		file string
		lnum int
		msg  string
		ok   bool
	}{
		{"internal/simulate/simulate.go:700:15: make([]Transfer, n) escapes to heap",
			"internal/simulate/simulate.go", 700, "make([]Transfer, n) escapes to heap", true},
		{"./bounds.go:14:6: can inline CeilLog2", "./bounds.go", 14, "can inline CeilLog2", true},
		{"# barterdist/internal/simulate", "", 0, "", false},
		{"", "", 0, "", false},
		{"not a diagnostic", "", 0, "", false},
	}
	for _, c := range cases {
		file, lnum, msg, ok := parseDiag(c.line)
		if ok != c.ok || file != c.file || lnum != c.lnum || msg != c.msg {
			t.Errorf("parseDiag(%q) = (%q, %d, %q, %v), want (%q, %d, %q, %v)",
				c.line, file, lnum, msg, ok, c.file, c.lnum, c.msg, c.ok)
		}
	}
}

func TestIsEscapeDiag(t *testing.T) {
	yes := []string{
		"make([]int, n) escapes to heap",
		"&node{...} escapes to heap",
		"moved to heap: n",
	}
	no := []string{
		"p does not escape",
		"leaking param: p",
		"can inline Leak",
		"inlining call to Stay",
	}
	for _, m := range yes {
		if !isEscapeDiag(m) {
			t.Errorf("isEscapeDiag(%q) = false, want true", m)
		}
	}
	for _, m := range no {
		if isEscapeDiag(m) {
			t.Errorf("isEscapeDiag(%q) = true, want false", m)
		}
	}
}

// escFixture writes a throwaway module with one deliberately-escaping
// function and one clean inlinable one, and computes its gate report.
func escFixture(t *testing.T) *EscapeReport {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module escfix\n\ngo 1.24\n",
		"escfix.go": `// Package escfix is a throwaway escape-gate fixture.
package escfix

// node is big enough that the compiler will not shrug the escape off.
type node struct{ v [4]int }

// Leak returns a pointer to a local: the textbook heap escape.
func Leak(v int) *node {
	n := node{}
	n.v[0] = v
	return &n
}

// Stay is tiny, pure, and inlinable.
func Stay(v int) int { return v + 1 }
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatalf("writing fixture: %v", err)
		}
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	diags, err := BuildEscapeDiagnostics(dir)
	if err != nil {
		t.Fatalf("BuildEscapeDiagnostics: %v", err)
	}
	report, err := Escape(dir, loader.Fset, pkgs, []string{"escfix.Leak", "escfix.Stay"}, diags)
	if err != nil {
		t.Fatalf("Escape: %v", err)
	}
	return report
}

// TestEscapeGateCatchesNewEscape is the acceptance-criterion fixture:
// a gated function that newly escapes to the heap must fail the gate
// against a baseline that recorded it clean.
func TestEscapeGateCatchesNewEscape(t *testing.T) {
	report := escFixture(t)
	byName := make(map[string]GateStatus)
	for _, g := range report.Gates {
		byName[g.Func] = g
	}
	leak, ok := byName["escfix.Leak"]
	if !ok || len(leak.Escapes) == 0 {
		t.Fatalf("Leak's escape not detected: %+v", report.Gates)
	}
	stay := byName["escfix.Stay"]
	if len(stay.Escapes) != 0 || !stay.CanInline {
		t.Fatalf("Stay should be clean and inlinable: %+v", stay)
	}

	// The committed baseline says Leak was clean and inlinable — the
	// current tree's new escape must surface as drift.
	clean := &EscapeReport{Gates: []GateStatus{
		{Func: "escfix.Leak", CanInline: leak.CanInline},
		{Func: "escfix.Stay", CanInline: true},
	}}
	drift := CompareEscape(clean, report)
	found := false
	for _, d := range drift {
		if strings.Contains(d, "escfix.Leak") && strings.Contains(d, "NEW heap escape") {
			found = true
		}
	}
	if !found {
		t.Fatalf("new escape did not fail the gate; drift = %v", drift)
	}

	// Lost inlining is drift too.
	inlined := &EscapeReport{Gates: []GateStatus{
		{Func: "escfix.Leak", CanInline: leak.CanInline, Escapes: leak.Escapes},
		{Func: "escfix.Stay", CanInline: true, Escapes: []string{"make([]int, n) escapes to heap"}},
	}}
	drift = CompareEscape(inlined, report)
	found = false
	for _, d := range drift {
		if strings.Contains(d, "escfix.Stay") && strings.Contains(d, "escape fixed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("baseline-only escape did not surface as drift; drift = %v", drift)
	}

	// Self-comparison is clean: the gate only fires on change.
	if drift := CompareEscape(report, report); len(drift) != 0 {
		t.Fatalf("self-comparison drifted: %v", drift)
	}
}

func TestEscapeMissingGateIsError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module escfix\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "escfix.go"), []byte("package escfix\n\nfunc Stay(v int) int { return v + 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	_, err = Escape(dir, loader.Fset, pkgs, []string{"escfix.Gone"}, nil)
	if err == nil || !strings.Contains(err.Error(), "escfix.Gone") {
		t.Fatalf("expected missing-gate error, got %v", err)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	report := escFixture(t)
	purity := &PurityReport{
		Roots:        []string{"r"},
		PairingRoots: []string{"r"},
		Functions:    []PurityFunc{{Func: "escfix.Stay", Class: ClassPure, Pairing: true}},
	}
	b := NewBaseline(purity, report)
	path := filepath.Join(t.TempDir(), "ANALYSIS.json")
	if err := b.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	if diffs := got.Compare(purity, report); len(diffs) != 0 {
		t.Fatalf("round-tripped baseline drifted: %v", diffs)
	}
	// Purity drift is drift too.
	changed := &PurityReport{
		Roots:        []string{"r"},
		PairingRoots: []string{"r"},
		Functions:    []PurityFunc{{Func: "escfix.Stay", Class: ClassSharedWriting, Pairing: true, Writes: []string{"global:escfix.x"}}},
	}
	diffs := got.Compare(changed, report)
	if len(diffs) == 0 || !strings.Contains(strings.Join(diffs, "\n"), "escfix.Stay") {
		t.Fatalf("purity drift not detected: %v", diffs)
	}
}
