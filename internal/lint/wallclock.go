package lint

import (
	"go/ast"
	"strings"
)

// wallClockScope lists the import-path suffixes of packages where
// simulated time is the only clock: engines and schedulers measure
// progress in ticks (or simulated seconds), so any wall-clock read is
// either a bug or a nondeterminism hazard.
var wallClockScope = []string{
	"internal/simulate",
	"internal/asim",
	"internal/schedule",
	"internal/randomized",
	"internal/bt",
	"internal/fault",
	"internal/adversary",
	// The columnar trace log is engine-adjacent: it is written from
	// inside the tick loop and replayed by audits, so a wall-clock read
	// there would be just as nondeterministic as in the engines.
	"internal/trace",
	// Checkpoints are replayed state: a timestamp baked into a snapshot
	// (or into its encoding) would make resumed runs diverge from
	// uninterrupted ones.
	"internal/checkpoint",
	// The open-system arrival plan is a decision stream both engines
	// consume tick by tick; a wall-clock read there would decorrelate
	// the Poisson schedule from the seed.
	"internal/arrival",
	// The swarm core is both engines' population state, fate rulings,
	// and checkpoint sections: engine code in all but name.
	"internal/swarm",
}

// wallClockFuncs are the package time entry points that observe or
// depend on the real clock. time.Duration arithmetic and constants
// remain allowed — they are pure values.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Sleep":     true,
}

// NoWallClockAnalyzer forbids wall-clock reads, timers, and tickers in
// the simulation and scheduler packages. Simulation time is ticks;
// reading the host clock would make traces irreproducible. Suppress
// with //lint:wallclock for audited exceptions.
func NoWallClockAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "no-wallclock",
		Doc:  "engines and schedulers must not read the wall clock (sim time is ticks)",
		Run:  runNoWallClock,
	}
}

func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if strings.HasSuffix(path, s) || strings.Contains(path, s+"/") {
			return true
		}
	}
	return false
}

func runNoWallClock(p *Pass) {
	if !inScope(p.Path, wallClockScope) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if wallClockFuncs[obj.Name()] {
				p.Reportf(sel.Pos(), "wallclock",
					"time.%s forbidden in %s: simulation time is ticks, not the wall clock",
					obj.Name(), p.Types.Name())
			}
			return true
		})
	}
}
