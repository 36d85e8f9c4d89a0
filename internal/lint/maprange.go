package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIterationAnalyzer flags `for ... range m` over a map in every
// package but the commands and this analysis tooling, whose output is
// sorted before anyone reads it. Go randomizes map iteration order per
// run, so any map-order-dependent decision breaks seed
// reproducibility.
//
// A loop is accepted without annotation only when its body is provably
// order-insensitive: every statement is a commutative integer
// aggregation (x++, x--, x += e, x -= e, x |= e, x &= e, x ^= e, or
// min/max-free guarded variants thereof with call-free conditions).
// Floating-point accumulation is NOT accepted — float addition is
// order-dependent under rounding. Everything else needs an audited
// //lint:ordered suppression on the loop line (sort the keys first
// where order can reach the trace).
func MapIterationAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "map-iteration",
		Doc:    "no map-order-dependent iteration outside cmd/ and internal/lint",
		Exempt: []string{"cmd", "internal/lint"},
		Run:    runMapIteration,
	}
}

func runMapIteration(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitiveBlock(p, rng.Body) {
				return true
			}
			p.Reportf(rng.Pos(), "ordered",
				"iteration over map %s has randomized order; sort the keys first or annotate an audited loop with //lint:ordered",
				exprString(rng.X))
			return true
		})
	}
}

// orderInsensitiveBlock reports whether every statement in the block is
// a commutative, exact (integer) aggregation whose result cannot
// depend on iteration order.
func orderInsensitiveBlock(p *Pass, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		if !orderInsensitiveStmt(p, stmt) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(p *Pass, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return isExactNumeric(p, s.X)
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		default:
			return false
		}
		for _, lhs := range s.Lhs {
			if !isExactNumeric(p, lhs) {
				return false
			}
		}
		for _, rhs := range s.Rhs {
			if containsCall(rhs) {
				return false
			}
		}
		return true
	case *ast.IfStmt:
		// A guard is fine as long as it is call-free (pure observation)
		// and both arms are themselves order-insensitive.
		if s.Init != nil || containsCall(s.Cond) {
			return false
		}
		if !orderInsensitiveBlock(p, s.Body) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return orderInsensitiveBlock(p, e)
		case *ast.IfStmt:
			return orderInsensitiveStmt(p, e)
		default:
			return false
		}
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.EmptyStmt:
		return true
	default:
		return false
	}
}

// isExactNumeric reports whether expr has an integer (or boolean-free
// bitset-style unsigned) type: types whose + and | are exactly
// commutative and associative. Floats are excluded — their addition is
// order-dependent under rounding.
func isExactNumeric(p *Pass, expr ast.Expr) bool {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&types.IsInteger != 0
}

// containsCall reports whether the expression performs any call (which
// could observe or mutate state, defeating the purity argument).
func containsCall(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}
