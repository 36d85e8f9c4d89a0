package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderExcludesTestsByDefault: without IncludeTests, _test.go
// files are invisible, so the withtests fixture (clean non-test file,
// wall-clock read in the test file) produces no findings.
func TestLoaderExcludesTestsByDefault(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "withtests")
	pkg, err := loader.LoadDir(dir, "fixture/internal/simulate/withtests")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.HasTests {
		t.Fatal("HasTests set without IncludeTests")
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("expected 1 non-test file, got %d", len(pkg.Files))
	}
	findings := RunAnalyzers(loader.Fset, []*Package{pkg}, []*Analyzer{NoWallClockAnalyzer()})
	if len(findings) != 0 {
		t.Fatalf("test-file violation leaked into default load: %v", findings)
	}
}

// TestLoaderIncludeTestsSeesTestFiles is the -tests fixture proof from
// the issue: with IncludeTests set, the in-package test file's
// time.Now() read is merged into the package and the no-wallclock
// analyzer fires exactly where the want comment says.
func TestLoaderIncludeTestsSeesTestFiles(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	loader.IncludeTests = true
	dir := filepath.Join("testdata", "src", "withtests")
	pkg, err := loader.LoadDir(dir, "fixture/internal/simulate/withtests")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if !pkg.HasTests {
		t.Fatal("HasTests not set")
	}
	findings := RunAnalyzers(loader.Fset, []*Package{pkg}, []*Analyzer{NoWallClockAnalyzer()})
	wants := parseWants(loader.Fset, pkg.Files)
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments")
	}
	if len(findings) != len(wants) {
		t.Fatalf("expected %d findings, got %v", len(wants), findings)
	}
	for i, w := range wants {
		f := findings[i]
		if f.Line != w.line || !strings.Contains(f.Msg, w.want) {
			t.Errorf("finding %d = %s, want line %d containing %q", i, f, w.line, w.want)
		}
		if !strings.HasSuffix(f.File, "_test.go") {
			t.Errorf("finding %d not in a test file: %s", i, f.File)
		}
	}
}

// TestLoaderExternalTestPackage: package foo_test files come back as a
// separate "<path>_test" package that imports the base package, and
// scoped analyzers treat it as in scope.
func TestLoaderExternalTestPackage(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	loader.IncludeTests = true
	dir := filepath.Join("testdata", "src", "withtests")
	pkgs, err := loader.LoadDirAll(dir, "fixture/internal/simulate/withtests")
	if err != nil {
		t.Fatalf("LoadDirAll: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("expected base + external test package, got %d (warnings: %v)", len(pkgs), loader.Warnings)
	}
	ext := pkgs[1]
	if ext.Path != "fixture/internal/simulate/withtests_test" {
		t.Fatalf("external test package path = %q", ext.Path)
	}
	if ext.Types.Name() != "withtests_test" {
		t.Fatalf("external test package name = %q", ext.Types.Name())
	}
	findings := RunAnalyzers(loader.Fset, []*Package{ext}, []*Analyzer{NoWallClockAnalyzer()})
	if len(findings) != 1 || !strings.Contains(findings[0].Msg, "time.Now") {
		t.Fatalf("external test package not analyzed in scope: %v", findings)
	}
}

// TestLoaderGenericInstantiations: the checker must populate
// Info.Instances so generic code (explicit and inferred
// instantiations, generic methods) loads cleanly.
func TestLoaderGenericInstantiations(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "genericinst")
	pkg, err := loader.LoadDir(dir, "fixture/genericinst")
	if err != nil {
		t.Fatalf("LoadDir(genericinst): %v", err)
	}
	if len(pkg.Info.Instances) == 0 {
		t.Fatal("Info.Instances empty: generic instantiations were not recorded")
	}
	findings := RunAnalyzers(loader.Fset, []*Package{pkg}, AllAnalyzers())
	if len(findings) != 0 {
		t.Fatalf("generic fixture should be analyzer-clean, got %v", findings)
	}
}

// TestLoadAllWithTests: the whole real module must still load with
// IncludeTests set — this is what cdvet -tests runs — and the
// test-included load must surface strictly more files than the
// default one, with stable package identity across the overlap.
func TestLoadAllWithTests(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module double load is slow")
	}
	plain, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	plainPkgs, err := plain.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}

	withTests, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	withTests.IncludeTests = true
	testPkgs, err := withTests.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll(tests): %v", err)
	}
	for _, w := range withTests.Warnings {
		t.Logf("loader warning: %s", w)
	}

	files := func(pkgs []*Package) int {
		n := 0
		for _, p := range pkgs {
			n += len(p.Files)
		}
		return n
	}
	if files(testPkgs) <= files(plainPkgs) {
		t.Fatalf("IncludeTests loaded %d files, plain %d: test files missing",
			files(testPkgs), files(plainPkgs))
	}
	// Every plain package must still be present under the same path.
	have := make(map[string]bool, len(testPkgs))
	hasTests := 0
	for _, p := range testPkgs {
		have[p.Path] = true
		if p.HasTests {
			hasTests++
		}
	}
	for _, p := range plainPkgs {
		if !have[p.Path] {
			t.Errorf("package %s lost when tests included", p.Path)
		}
	}
	if hasTests == 0 {
		t.Fatal("no package picked up its test files")
	}
}
