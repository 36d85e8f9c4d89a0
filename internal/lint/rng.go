package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// forbiddenRandImports are the randomness sources non-test code must
// not touch: everything flows through internal/xrand so that a run is
// a pure function of its seed and the stream is pinned across Go
// releases.
var forbiddenRandImports = map[string]string{
	"math/rand":    "use internal/xrand (seeded, stable stream) instead of math/rand",
	"math/rand/v2": "use internal/xrand (seeded, stable stream) instead of math/rand/v2",
	"crypto/rand":  "crypto/rand is nondeterministic; simulations must draw from internal/xrand",
}

// RNGDisciplineAnalyzer enforces the project's randomness discipline:
//
//  1. non-test code may not import math/rand, math/rand/v2, or
//     crypto/rand — internal/xrand is the only randomness source;
//  2. every xrand source construction (xrand.New) must be seeded by an
//     explicit, reproducible expression: seeds derived from the wall
//     clock (any call into package time) are rejected.
//
// Per-worker seed derivation is explicitly in bounds: the parallel
// experiment runner seeds each replicate with base + i*SeedStride and
// hands every worker its own xrand stream. That passes rule 2 because
// the seed is a pure function of explicit configuration (base, i) — it
// does not depend on scheduling, worker identity, or the clock. The
// rngworkers fixture pins this pattern as accepted.
//
// Suppress a finding with //lint:rng on the offending line when a
// deliberate exception has been audited.
func RNGDisciplineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "rng-discipline",
		Doc:  "all randomness flows through internal/xrand with explicit, non-wall-clock seeds",
		// The xrand package itself is the one place allowed to own a
		// generator implementation.
		Exempt: []string{"internal/xrand"},
		Run:    runRNGDiscipline,
	}
}

func runRNGDiscipline(p *Pass) {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if msg, bad := forbiddenRandImports[path]; bad {
				p.Reportf(imp.Pos(), "rng", "import of %s forbidden in non-test code: %s", path, msg)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isPkgFunc(p, call.Fun, "barterdist/internal/xrand", "New") {
				return true
			}
			if len(call.Args) != 1 {
				return true
			}
			if clock := findTimeCall(p, call.Args[0]); clock != nil {
				p.Reportf(call.Pos(), "rng",
					"xrand.New seeded from the wall clock (%s): seeds must be explicit and reproducible",
					exprString(clock))
			}
			return true
		})
	}
}

// findTimeCall returns the first call into package time found inside
// expr, or nil.
func findTimeCall(p *Pass, expr ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := calleeObject(p, call.Fun); obj != nil {
			if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "time" {
				found = call.Fun
				return false
			}
		}
		return true
	})
	return found
}

// isPkgFunc reports whether fun resolves to the named function of the
// named package.
func isPkgFunc(p *Pass, fun ast.Expr, pkgPath, name string) bool {
	obj := calleeObject(p, fun)
	if obj == nil || obj.Name() != name {
		return false
	}
	pkg := obj.Pkg()
	return pkg != nil && pkg.Path() == pkgPath
}

// calleeObject resolves the object a call's function expression refers
// to, through selectors and parens.
func calleeObject(p *Pass, fun ast.Expr) types.Object {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	}
	return nil
}

// exprString renders a short source-ish form of simple expressions for
// messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	}
	return "expression"
}
