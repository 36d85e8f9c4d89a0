package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot is the repository root relative to this package.
const moduleRoot = "../.."

// loadFixturePkg type-checks one testdata package under the given
// import path, which lets a fixture stand in for a package at any
// place in the module (exempt or not).
func loadFixturePkg(t *testing.T, fixture, asPath string) (*Loader, *Package) {
	t.Helper()
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", fixture), asPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", fixture, err)
	}
	return loader, pkg
}

// loadFixture is loadFixturePkg plus one analyzer's findings on it.
func loadFixture(t *testing.T, a *Analyzer, fixture, asPath string) (*Loader, *Package, []Finding) {
	t.Helper()
	loader, pkg := loadFixturePkg(t, fixture, asPath)
	return loader, pkg, RunAnalyzers(loader.Fset, []*Package{pkg}, []*Analyzer{a})
}

// wantComment is one "// want \"substring\"" expectation.
type wantComment struct {
	line int
	want string
}

// parseWants extracts the fixture's expectations.
func parseWants(fset *token.FileSet, files []*ast.File) []wantComment {
	var wants []wantComment
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, `want "`)
				if i < 0 {
					continue
				}
				rest := text[i+len(`want "`):]
				j := strings.Index(rest, `"`)
				if j < 0 {
					continue
				}
				wants = append(wants, wantComment{
					line: fset.Position(c.Pos()).Line,
					want: rest[:j],
				})
			}
		}
	}
	return wants
}

// matchWants asserts findings fire exactly where the want comments
// say, and nowhere else.
func matchWants(t *testing.T, fset *token.FileSet, files []*ast.File, findings []Finding, label string) {
	t.Helper()
	wants := parseWants(fset, files)
	matched := make([]bool, len(findings))
	for _, w := range wants {
		ok := false
		for i, f := range findings {
			if !matched[i] && f.Line == w.line && strings.Contains(f.Msg, w.want) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: expected finding at line %d containing %q; findings: %v", label, w.line, w.want, findings)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("%s: unexpected finding %s", label, f)
		}
	}
}

// checkFixture asserts the analyzer fires exactly where the fixture's
// want comments say, and nowhere else.
func checkFixture(t *testing.T, a *Analyzer, fixture, asPath string) {
	t.Helper()
	checkFixtureAll(t, []*Analyzer{a}, fixture, asPath)
}

// checkFixtureAll is checkFixture over several analyzers at once, for
// fixtures whose want comments span more than one rule.
func checkFixtureAll(t *testing.T, as []*Analyzer, fixture, asPath string) {
	t.Helper()
	loader, pkg := loadFixturePkg(t, fixture, asPath)
	findings := RunAnalyzers(loader.Fset, []*Package{pkg}, as)
	matchWants(t, loader.Fset, pkg.Files, findings, fixture)
}

// checkExemptSilent asserts that none of the analyzers fires on the
// fixture loaded under an exempt path.
func checkExemptSilent(t *testing.T, as []*Analyzer, fixture, asPath string) {
	t.Helper()
	for _, a := range as {
		if _, _, findings := loadFixture(t, a, fixture, asPath); len(findings) != 0 {
			t.Fatalf("%s: exempt package should be silent for %s, got %v", asPath, a.Name, findings)
		}
	}
}

func TestRNGDisciplineFixtures(t *testing.T) {
	a := RNGDisciplineAnalyzer()
	checkFixture(t, a, "rngbad", "fixture/rngbad")
	checkFixture(t, a, "rnggood", "fixture/rnggood")
	// Per-worker seed derivation (base + i*stride, one stream per
	// replicate) is the parallel runner's pattern and must stay clean.
	checkFixture(t, a, "rngworkers", "fixture/rngworkers")
}

func TestRNGDisciplineExemptsXrandItself(t *testing.T) {
	// internal/xrand is the one package allowed to own the generator.
	_, _, findings := loadFixture(t, RNGDisciplineAnalyzer(), "rngbad", "fixture/internal/xrand")
	if len(findings) != 0 {
		t.Fatalf("xrand package should be exempt, got %v", findings)
	}
}

func TestNoWallClockFixtures(t *testing.T) {
	a := NoWallClockAnalyzer()
	// Not exempt: the violations fire.
	checkFixture(t, a, "wallclock", "fixture/internal/simulate/wallclock")
	// Not exempt: pure durations stay silent.
	checkFixture(t, a, "wallclockgood", "fixture/internal/asim/wallclockgood")
	// Exempt: the same violating code is silent.
	checkExemptSilent(t, []*Analyzer{a}, "wallclock", "fixture/internal/experiment/wallclock")
	checkExemptSilent(t, []*Analyzer{a}, "wallclock", "fixture/cmd/wallclock")
}

func TestMapIterationFixtures(t *testing.T) {
	a := MapIterationAnalyzer()
	checkFixture(t, a, "maporder", "fixture/internal/schedule/maporder")
	// Exempt: silent.
	checkExemptSilent(t, []*Analyzer{a}, "maporder", "fixture/internal/lint/maporder")
	checkExemptSilent(t, []*Analyzer{a}, "maporder", "fixture/cmd/maporder")
}

// TestRulesApplyToNewPackages pins module-wide scoping: a package no
// rule has heard of is checked by default, so the determinism rules
// fire on it without anyone adding it to a list.
func TestRulesApplyToNewPackages(t *testing.T) {
	checkFixture(t, NoWallClockAnalyzer(), "wallclock", "fixture/internal/newpkg/wallclock")
	checkFixture(t, MapIterationAnalyzer(), "maporder", "fixture/internal/newpkg/maporder")
}

func TestAdversaryScopeFixture(t *testing.T) {
	// internal/adversary is inside BOTH determinism scopes: strike
	// tables are maps keyed by peer pair, and quarantine expiry tempts
	// a wall-clock read instead of simulated time. The advbehavior
	// fixture carries violations of each rule, so both analyzers run
	// together and every want line must fire under the adversary path.
	as := []*Analyzer{NoWallClockAnalyzer(), MapIterationAnalyzer()}
	checkFixtureAll(t, as, "advbehavior", "fixture/internal/adversary/advbehavior")
	// Exempt: the same violating code is silent for both rules.
	checkExemptSilent(t, as, "advbehavior", "fixture/cmd/advbehavior")
}

func TestCheckpointScopeFixture(t *testing.T) {
	// internal/checkpoint is inside BOTH determinism scopes: snapshot
	// encoders walk maps (credit ledgers, quarantine tables) and a
	// "written at" header field tempts a wall-clock read. The ckptio
	// fixture carries violations of each rule, so both analyzers run
	// together and every want line must fire under the checkpoint path.
	as := []*Analyzer{NoWallClockAnalyzer(), MapIterationAnalyzer()}
	checkFixtureAll(t, as, "ckptio", "fixture/internal/checkpoint/ckptio")
	// Exempt: the same violating code is silent for both rules.
	checkExemptSilent(t, as, "ckptio", "fixture/cmd/ckptio")
}

func TestArrivalScopeFixture(t *testing.T) {
	// internal/arrival is inside BOTH determinism scopes: the Poisson
	// schedule must come from the seeded stream (never the wall clock)
	// and any per-peer map walk could leak order into the departure
	// queue both engines consume. The openflow fixture carries
	// violations of each rule, so both analyzers run together and every
	// want line must fire under the arrival path.
	as := []*Analyzer{NoWallClockAnalyzer(), MapIterationAnalyzer()}
	checkFixtureAll(t, as, "openflow", "fixture/internal/arrival/openflow")
	// Exempt: the same violating code is silent for both rules.
	checkExemptSilent(t, as, "openflow", "fixture/cmd/openflow")
}

func TestIgnoredErrorsFixtures(t *testing.T) {
	checkFixture(t, IgnoredErrorsAnalyzer(), "ignorederr", "fixture/ignorederr")
}

func TestConfigValidationFixtures(t *testing.T) {
	a := ConfigValidationAnalyzer()
	checkFixture(t, a, "configbad", "fixture/configbad")
	checkFixture(t, a, "configgood", "fixture/configgood")
}

func TestSelectRules(t *testing.T) {
	all, err := Select("")
	if err != nil {
		t.Fatalf("Select(all): %v", err)
	}
	if len(all) < 5 {
		t.Fatalf("expected at least 5 analyzers, got %d", len(all))
	}
	two, err := Select("rng-discipline, map-iteration")
	if err != nil {
		t.Fatalf("Select(two): %v", err)
	}
	if len(two) != 2 {
		t.Fatalf("expected 2 analyzers, got %d", len(two))
	}
	if _, err := Select("no-such-rule"); err == nil {
		t.Fatal("expected error for unknown rule")
	}
}

// cdvetHalf names the rules internal/analysis's TestCdvetModuleClean
// runs over the module; TestModuleIsClean runs every other rule.
var cdvetHalf = map[string]bool{"concurrency-containment": true, "shard-purity": true, "escape-gate": true}

// TestModuleIsClean is the per-package half of the meta-gate: the
// repository's own tree must pass every rule outside cdvetHalf with
// zero findings, through the same entry point cmd/cdvet and
// `make lint` use. A math/rand import in a scheduler, a wall-clock
// read in the engine or an unordered map range on a result path makes
// this test fail. A newly registered rule lands here by default.
func TestModuleIsClean(t *testing.T) {
	var rules []*Analyzer
	for _, a := range AllAnalyzers() {
		if !cdvetHalf[a.Name] {
			rules = append(rules, a)
		}
	}
	report, err := Gate(moduleRoot, rules, false, false)
	if err != nil {
		t.Fatalf("Gate: %v", err)
	}
	for _, w := range report.Warnings {
		t.Logf("loader warning: %s", w)
	}
	if report.Packages < 15 {
		t.Fatalf("loader found only %d packages; module walker is broken", report.Packages)
	}
	for _, f := range report.Findings {
		t.Errorf("finding: %s", f)
	}
}
