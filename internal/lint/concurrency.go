package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// concurrencyPkgs are the packages whose very mention outside the
// exempt packages is a finding.
var concurrencyPkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
}

// ConcurrencyContainmentAnalyzer flags go statements, channel
// operations (send, receive, select, close, chan types), and any use
// of sync or sync/atomic outside internal/parallel. The determinism
// contract wants every goroutine, channel, mutex, and atomic behind
// internal/parallel's deterministic worker pool; anything else is a
// place where scheduler interleaving could leak into results.
// internal/shard, the sharded tick's fan-out façade, is exempt with it:
// it owns the lane decomposition and delegates every goroutine to
// internal/parallel, but it sits on the same containment boundary.
// Suppress audited exceptions with //lint:concurrency-containment and
// a justification.
func ConcurrencyContainmentAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "concurrency-containment",
		Doc:    "concurrency primitives (go, chan, sync, atomic) must stay inside internal/parallel",
		Exempt: []string{"internal/parallel", "internal/shard"},
		Run:    runConcurrencyContainment,
	}
}

func runConcurrencyContainment(p *Pass) {
	const directive = "concurrency-containment"
	report := func(pos token.Pos, what string) {
		p.Reportf(pos, directive,
			"%s outside internal/parallel: deterministic runs keep all concurrency behind the worker pool", what)
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				path := strings.Trim(n.Path.Value, `"`)
				if concurrencyPkgs[path] {
					report(n.Pos(), "import of "+path)
				}
			case *ast.GoStmt:
				report(n.Pos(), "go statement")
			case *ast.SelectStmt:
				report(n.Pos(), "select statement")
			case *ast.SendStmt:
				report(n.Pos(), "channel send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n.Pos(), "channel receive")
				}
			case *ast.ChanType:
				report(n.Pos(), "channel type")
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
						report(n.Pos(), "close of channel")
					}
				}
			case *ast.SelectorExpr:
				// sync.Mutex / atomic.AddUint64 etc: a selector whose
				// base names one of the concurrency packages. Method
				// calls on an already-declared mutex (mu.Lock) are not
				// re-flagged — the declaration site carries the finding.
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && concurrencyPkgs[pn.Imported().Path()] {
					report(n.Pos(), "use of "+pn.Imported().Path()+"."+n.Sel.Name)
				}
			}
			return true
		})
	}
}
