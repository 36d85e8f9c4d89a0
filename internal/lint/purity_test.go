package lint

import (
	"strings"
	"testing"
)

// purityFixture runs the shard-purity analysis over the puritycases
// fixture with its three Pair* functions as pairing roots.
func purityFixture(t *testing.T) (*PurityReport, []Finding, *Loader, *Package) {
	t.Helper()
	loader, pkg := loadFixturePkg(t, "puritycases", "fixture/puritycases")
	roots := []string{
		"fixture/puritycases.PairPeer",
		"fixture/puritycases.PairQuiet",
		"fixture/puritycases.PairDynamic",
	}
	report, findings, err := Purity("fixture/puritycases", loader.Fset, []*Package{pkg}, roots, roots)
	if err != nil {
		t.Fatalf("Purity: %v", err)
	}
	return report, findings, loader, pkg
}

func TestPurityClassification(t *testing.T) {
	report, _, _, _ := purityFixture(t)
	want := map[string]PurityClass{
		"fixture/puritycases.BlocksOf":     ClassPure,
		"(*fixture/puritycases.Peer).Mark": ClassReceiverLocal,
		"fixture/puritycases.FillWindow":   ClassParamWriting,
		"fixture/puritycases.tally":        ClassSharedWriting,
		"fixture/puritycases.PairPeer":     ClassSharedWriting, // inherits tally
		"fixture/puritycases.noteAudit":    ClassSharedWriting, // true class survives suppression
		"fixture/puritycases.PairQuiet":    ClassParamWriting,  // suppressed origin not propagated
		"fixture/puritycases.PairDynamic":  ClassUnknown,
	}
	got := make(map[string]PurityFunc, len(report.Functions))
	for _, f := range report.Functions {
		got[f.Func] = f
	}
	for name, class := range want {
		f, ok := got[name]
		if !ok {
			t.Errorf("%s missing from report", name)
			continue
		}
		if f.Class != class {
			t.Errorf("%s classified %s, want %s (writes %v)", name, f.Class, class, f.Writes)
		}
		if !f.Pairing {
			t.Errorf("%s not marked pairing-reachable", name)
		}
	}
	if f := got["fixture/puritycases.noteAudit"]; !f.Suppressed {
		t.Error("noteAudit not marked suppressed in the report")
	}
	if f := got["fixture/puritycases.PairPeer"]; !hasWrite(f.Writes, "global:fixture/puritycases.sharedCount") {
		t.Errorf("PairPeer writes = %v, want propagated shared write", f.Writes)
	}
	if f := got["fixture/puritycases.PairQuiet"]; hasWrite(f.Writes, "global:fixture/puritycases.auditLog") {
		t.Errorf("PairQuiet inherited a suppressed origin's write: %v", f.Writes)
	}
}

func hasWrite(writes []string, w string) bool {
	for _, x := range writes {
		if x == w {
			return true
		}
	}
	return false
}

func TestPurityFindingsAtOrigins(t *testing.T) {
	_, findings, loader, pkg := purityFixture(t)
	// Findings land exactly where the fixture's want comments say: at
	// tally's shared write and PairDynamic's dynamic call — never at
	// the callers that inherit the class, never at the suppressed
	// noteAudit.
	matchWants(t, loader.Fset, pkg.Files, findings, "puritycases")
	for _, f := range findings {
		if strings.Contains(f.Msg, "auditLog") {
			t.Errorf("suppressed origin reported: %s", f)
		}
	}
}

func TestPurityMissingRootIsError(t *testing.T) {
	loader, pkg := loadFixturePkg(t, "puritycases", "fixture/puritycases")
	_, _, err := Purity("fixture/puritycases", loader.Fset, []*Package{pkg},
		[]string{"fixture/puritycases.Renamed"}, nil)
	if err == nil || !strings.Contains(err.Error(), "Renamed") {
		t.Fatalf("expected missing-root error, got %v", err)
	}
}

func TestDefaultRootsResolveOnRealModule(t *testing.T) {
	// The declared tick/pairing roots must exist in the real module —
	// a renamed picker has to update the root list, not silently
	// shrink the certified surface. (The full meta-gate is
	// TestModuleIsClean; this pins just the root resolution.)
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	mod := loader.ModulePath()
	report, _, err := Purity(mod, loader.Fset, pkgs, DefaultPairingRoots(mod), DefaultPurityRoots(mod))
	if err != nil {
		t.Fatalf("Purity: %v", err)
	}
	if len(report.Functions) < 100 {
		t.Fatalf("only %d functions reachable from the tick core; call-graph construction is broken", len(report.Functions))
	}
	pairing := 0
	for _, f := range report.Functions {
		if f.Pairing {
			pairing++
		}
	}
	if pairing < 20 {
		t.Fatalf("only %d functions pairing-reachable; pairing reachability is broken", pairing)
	}
}
