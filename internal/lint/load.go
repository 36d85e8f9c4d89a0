// Package lint is the barterdist module's static gate, behind
// cmd/cdvet: a stdlib-only framework with a tiny module loader built
// on go/parser + go/types + go/importer (no golang.org/x/tools), and
// the eight rules that run over it. Gate loads the module once and
// runs them all.
//
// The rules exist to protect the repository's core claim: every
// figure and table is regenerated from fixed seeds, and two runs with
// the same seed must produce byte-identical traces. They make the
// preconditions of that claim machine-checked — all randomness flows
// through internal/xrand, simulated time never reads the wall clock,
// no Go map is iterated in its randomized order, and concurrency stays
// inside internal/parallel. Every per-package rule applies module-wide
// except for the packages on its own exemption list.
//
// The cross-package dataflow analyses (shard purity, the escape gate)
// need whole-module type information with stable object identity
// across packages, which the recursive source importer provides by
// construction: every import path is type-checked exactly once per
// Loader.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync" //lint:concurrency-containment analysis tooling, not engine code: the shared stdlib source importer is memoized process-wide because type-checking std from source is the expensive part, and test binaries exercise loaders from parallel subtests
)

// Package is one type-checked package of the module. By default only
// non-test files are loaded; a Loader with IncludeTests set merges
// in-package _test.go files into the package and surfaces external
// (package foo_test) test packages as separate Packages.
type Package struct {
	// Path is the import path ("barterdist/internal/simulate"). For an
	// external test package it is the base path with a "_test" suffix.
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files are the parsed files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries identifier resolution for the files, including
	// generic instantiations (Info.Instances).
	Info *types.Info
	// HasTests reports whether _test.go files were merged into Files.
	HasTests bool
}

// Loader discovers and type-checks the packages of a single module
// without golang.org/x/tools. Intra-module imports are resolved
// recursively from source; standard-library imports go through the
// shared go/importer source importer.
type Loader struct {
	Fset *token.FileSet

	// IncludeTests, when set before loading, merges in-package _test.go
	// files into each requested package and loads external test
	// packages (package foo_test) alongside. It applies consistently to
	// recursively imported packages too, so cross-package object
	// identity stays intact: a package is never type-checked twice with
	// different file sets. Test files whose inclusion breaks
	// type-checking (for example a test-only import cycle, which Go
	// permits but a single-pass source importer cannot express) degrade
	// gracefully: the package loads without its test files and the
	// degradation is recorded in Warnings.
	IncludeTests bool

	// Warnings collects non-fatal loading degradations (test files
	// skipped to break a cycle, unparseable test files). Tools surface
	// them; analyses proceed on what loaded.
	Warnings []string

	moduleRoot string
	modulePath string
	std        types.Importer

	pkgs    map[string]*Package // by import path, fully loaded
	loading map[string]bool     // cycle guard
}

// stdImporter is shared across loaders because type-checking the
// standard library from source is the expensive part; the importer
// caches each std package after the first import.
var (
	stdOnce     sync.Once //lint:concurrency-containment see the sync import note above
	stdImp      types.Importer
	stdImpFset  *token.FileSet
	stdImpMutex sync.Mutex //lint:concurrency-containment see the sync import note above
)

func sharedStdImporter() (types.Importer, *token.FileSet) {
	stdOnce.Do(func() {
		stdImpFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdImpFset, "source", nil)
	})
	return stdImp, stdImpFset
}

// NewLoader returns a loader rooted at moduleRoot, whose go.mod names
// the module path.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, fmt.Errorf("lint: resolving module root: %w", err)
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	std, fset := sharedStdImporter()
	return &Loader{
		Fset:       fset,
		moduleRoot: abs,
		modulePath: modPath,
		std:        std,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// ModulePath reports the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modulePath }

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadAll walks the module tree and loads every package, skipping
// testdata, hidden directories, and directories without Go files.
// With IncludeTests set, in-package test files are merged and external
// test packages are appended after their base package. Packages are
// returned sorted by import path (the external test package, if any,
// sorts directly after its base).
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking module: %w", err)
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		pkgs, err := l.LoadDirAll(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isLintableGoFile(e) {
			return true
		}
	}
	return false
}

func isLintableGoFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() &&
		strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

func isTestGoFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() &&
		strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// LoadDir parses and type-checks the single package in dir under the
// given import path. The path may differ from the directory's natural
// module path; fixture tests use this to load a testdata package as if
// it lived at a rule's scoped location. With IncludeTests set,
// in-package test files are merged; external test files are ignored
// here (use LoadDirAll to get the external test package too).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.loadDir(dir, importPath, l.IncludeTests)
}

// LoadDirAll is LoadDir plus, when IncludeTests is set and the
// directory carries external (package foo_test) test files, the
// external test package under the import path importPath + "_test".
func (l *Loader) LoadDirAll(dir, importPath string) ([]*Package, error) {
	base, err := l.loadDir(dir, importPath, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	out := []*Package{base}
	if !l.IncludeTests {
		return out, nil
	}
	ext, err := l.loadExternalTests(dir, importPath, base)
	if err != nil {
		return nil, err
	}
	if ext != nil {
		out = append(out, ext)
	}
	return out, nil
}

// parseDir parses the package's files. It returns the non-test files
// and, when includeTests is set, the in-package and external test
// files split by their package clause (external = clause ending in
// "_test"). Unparseable test files degrade to a warning.
func (l *Loader) parseDir(dir string, includeTests bool) (base, inPkg, external []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	var names, testNames []string
	for _, e := range entries {
		switch {
		case isLintableGoFile(e):
			names = append(names, e.Name())
		case includeTests && isTestGoFile(e):
			testNames = append(testNames, e.Name())
		}
	}
	sort.Strings(names)
	sort.Strings(testNames)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("lint: parsing: %w", err)
		}
		base = append(base, f)
	}
	for _, name := range testNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			l.Warnings = append(l.Warnings, fmt.Sprintf("skipping unparseable test file %s: %v", filepath.Join(dir, name), err))
			continue
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	return base, inPkg, external, nil
}

// newInfo returns a fresh types.Info with every optional map the
// analyses rely on, including Instances so generic instantiations
// resolve to their origin functions instead of tripping the checker.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// loadDir loads the base package of dir, merging in-package test files
// when includeTests is set. Inclusion applies uniformly to recursive
// imports (the Loader-level flag), so a package is never checked twice
// with different file sets and object identity stays stable.
func (l *Loader) loadDir(dir, importPath string, includeTests bool) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	base, inPkg, _, err := l.parseDir(dir, includeTests)
	if err != nil {
		return nil, err
	}
	if len(base)+len(inPkg) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	files := base
	hasTests := len(inPkg) > 0
	if hasTests {
		files = append(append([]*ast.File(nil), base...), inPkg...)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil && hasTests {
		// Graceful degradation: a test file may import a package that
		// (transitively) imports this one — legal for `go test`, but a
		// cycle for a single-pass source importer — or carry its own
		// type errors. Retry without the test files so the non-test
		// tree still gets analyzed, and record what was dropped.
		l.Warnings = append(l.Warnings, fmt.Sprintf("loading %s without its test files: %v", importPath, err))
		files, hasTests = base, false
		if len(files) == 0 {
			return nil, fmt.Errorf("lint: type-checking %s (only test files present): %w", importPath, err)
		}
		info = newInfo()
		tpkg, err = conf.Check(importPath, l.Fset, files, info)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info, HasTests: hasTests}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// loadExternalTests type-checks dir's package foo_test files (if any)
// as their own package under importPath + "_test". The base package
// must already be loaded; the external package imports it through the
// regular importer. Failures degrade to a warning, never an error —
// external test files are auxiliary to every analysis.
func (l *Loader) loadExternalTests(dir, importPath string, base *Package) (*Package, error) {
	_, _, external, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(external) == 0 {
		return nil, nil
	}
	extPath := importPath + "_test"
	if pkg, ok := l.pkgs[extPath]; ok {
		return pkg, nil
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(extPath, l.Fset, external, info)
	if err != nil {
		l.Warnings = append(l.Warnings, fmt.Sprintf("skipping external test package %s: %v", extPath, err))
		return nil, nil
	}
	pkg := &Package{Path: extPath, Dir: dir, Files: external, Types: tpkg, Info: info, HasTests: true}
	l.pkgs[extPath] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths are loaded
// from source recursively; everything else is delegated to the shared
// standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	// Already-loaded packages resolve by exact path first. This is what
	// lets a fixture loaded under a fake scoped import path (see
	// LoadDir) be imported by its own external test package.
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		pkg, err := l.loadDir(dir, path, l.IncludeTests)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	stdImpMutex.Lock()
	defer stdImpMutex.Unlock()
	return l.std.Import(path)
}
