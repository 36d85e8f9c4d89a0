package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"barterdist/internal/lint"
)

// capture runs run() with stdout redirected to a temp file and
// returns the exit code and output.
func capture(t *testing.T, args []string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close() //lint:ignoreerr test temp file
	code := run(args, out, os.Stderr)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

func TestListRules(t *testing.T) {
	code, out := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, rule := range []string{
		"concurrency-containment", "config-validation", "escape-gate", "ignored-errors",
		"map-iteration", "no-wallclock", "rng-discipline", "shard-purity",
	} {
		if !strings.Contains(out, rule) {
			t.Errorf("-list output missing %s:\n%s", rule, out)
		}
	}
}

func TestUnknownRule(t *testing.T) {
	if code, _ := capture(t, []string{"-rules", "no-such-rule"}); code != 2 {
		t.Fatalf("unknown rule exited %d, want 2", code)
	}
}

// TestPackagePatternRejected pins that a package pattern is never
// silently ignored: cdvet checks the whole module, so anything but
// ./... is a usage error rather than a run that checks more than was
// asked for.
func TestPackagePatternRejected(t *testing.T) {
	for _, args := range [][]string{
		{"./internal/simulate"},
		{"-list", "./internal/simulate"},
		{"./...", "./cmd/..."},
	} {
		if code, _ := capture(t, args); code != 2 {
			t.Errorf("cdvet %v exited %d, want 2", args, code)
		}
	}
}

func TestUpdateNeedsAllRules(t *testing.T) {
	if code, _ := capture(t, []string{"-update", "-rules", "shard-purity"}); code != 2 {
		t.Fatalf("-update with partial rules exited %d, want 2", code)
	}
}

// TestModuleCleanViaCLI runs the full default gate over the real
// module, as `make lint` does plus the ./... pattern: exit 0, and the
// JSON report carries the purity map and escape gates matching the
// committed baseline.
func TestModuleCleanViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis + instrumented build is slow")
	}
	code, out := capture(t, []string{"-json", "./..."})
	if code != 0 {
		t.Fatalf("cdvet exited %d on main; output:\n%s", code, out)
	}
	var report lint.Report
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if report.Schema == "" || report.Purity == nil || report.Escape == nil {
		t.Fatalf("report missing sections: %+v", report)
	}
	if len(report.Findings) != 0 || len(report.Drift) != 0 {
		t.Fatalf("main should be clean: findings=%v drift=%v", report.Findings, report.Drift)
	}
	if len(report.Purity.Functions) < 100 || len(report.Escape.Gates) < 40 {
		t.Fatalf("report suspiciously small: %d functions, %d gates",
			len(report.Purity.Functions), len(report.Escape.Gates))
	}
}
