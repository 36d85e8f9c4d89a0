package lint

import "go/ast"

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

// NoWallClockAnalyzer forbids wall-clock reads, timers, and tickers
// everywhere but the measuring shell around the simulation. Simulation
// time is ticks; reading the host clock would make traces
// irreproducible. The exemptions are the commands, which time runs for
// people and benchmarks, and internal/experiment, which measures Table
// Scale's wall-clock columns around whole runs and keeps them out of
// CI-scale output. Suppress with //lint:wallclock for audited
// exceptions.
func NoWallClockAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "no-wallclock",
		Doc:    "no wall-clock reads outside cmd/ and internal/experiment (sim time is ticks)",
		Exempt: []string{"cmd", "internal/experiment"},
		Run:    runNoWallClock,
	}
}

func runNoWallClock(p *Pass) {
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
