// Command cdvet is the module's static gate. It loads the module once,
// runs every rule of internal/lint over it — the determinism rules
// (rng-discipline, no-wallclock, map-iteration), the invariant rules
// (ignored-errors, config-validation), concurrency-containment,
// shard-purity and the escape-gate — and compares the purity and
// escape sections against the committed baseline ANALYSIS.json.
// Findings print as
//
//	file:line:col: [rule] message
//
// It is part of the pre-PR gate: `make check` (and CI) fail on any
// finding or on any drift from the baseline.
//
// Usage:
//
//	cdvet [-rules r1,r2] [-list] [-json] [-tests] [-update] [./...]
//
// Flags:
//
//	-rules   comma-separated rule names to run (default: all)
//	-list    print the available rules and exit
//	-json    emit the full report (purity map, escape gates,
//	         findings, drift) as JSON
//	-tests   include _test.go files in the analyzed packages
//	-update  rewrite ANALYSIS.json from the current tree instead of
//	         comparing against it
//
// cdvet always analyzes the whole module containing the working
// directory, so the only package pattern it accepts is ./... .
//
// Exit status: 0 clean, 1 findings or baseline drift, 2 usage or
// internal error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"barterdist/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("cdvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated rule names to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	withTests := fs.Bool("tests", false, "include _test.go files in the analyzed packages")
	update := fs.Bool("update", false, "rewrite the baseline from the current tree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, arg := range fs.Args() {
		if arg != "./..." {
			fmt.Fprintf(stderr, "cdvet: package pattern %q not supported: cdvet always checks the whole module (./...)\n", arg)
			fs.Usage()
			return 2
		}
	}

	if *list {
		for _, a := range lint.AllAnalyzers() {
			fmt.Fprintf(stdout, "%-24s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.Select(*rules)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	report, err := lint.Gate(root, analyzers, *withTests, *update)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, w := range report.Warnings {
		fmt.Fprintf(stderr, "cdvet: warning: %s\n", w)
	}
	if *update {
		fmt.Fprintf(stderr, "cdvet: baseline written to %s\n", filepath.Join(root, lint.BaselineFile))
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range report.Findings {
			fmt.Fprintln(stdout, f.String())
		}
		for _, d := range report.Drift {
			fmt.Fprintf(stdout, "drift: %s\n", d)
		}
	}
	if n := len(report.Findings) + len(report.Drift); n > 0 {
		fmt.Fprintf(stderr, "cdvet: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cdvet: no go.mod found above the working directory")
		}
		dir = parent
	}
}
