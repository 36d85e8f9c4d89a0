package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Shard-purity: an interprocedural write-set analysis over the tick
// core. ROADMAP item 1 wants to shard the synchronous tick across
// workers *inside* a run; that is only deterministic if everything a
// per-peer pairing decision executes writes nothing but (a) its own
// receiver state and (b) state handed to it by the caller. This
// analysis computes, for every function reachable from the engines'
// tick and pairing entry points, an abstract write set rooted at
// {receiver, parameter i, package-level variable}, propagates callee
// effects to callers to a fixed point, and classifies each function:
//
//	pure            writes nothing, calls nothing impure
//	receiver-local  writes only through its receiver
//	param-writing   writes through parameters (caller decides locality)
//	shared-writing  writes a package-level variable
//	unknown         contains a dynamic call the analysis cannot resolve
//
// The gate: any function reachable from a per-peer pairing root that
// is shared-writing or unknown is a finding, reported at the origin
// (the function with the direct global write or unresolved call), and
// suppressible there with //lint:shard-purity — suppression drops the
// origin's direct effects from propagation, so an audited exception
// does not condemn its whole call chain. The machine-readable report
// (ANALYSIS.json "purity") is the prerequisite map the sharding PR
// consumes: receiver-local and param-writing functions are shardable
// once their receiver/argument roots are per-peer; shared-writing ones
// must be restructured first.
//
// Model limits, chosen for this codebase and documented here: calling
// a plain func-typed value contributes no effects (the module's hot
// paths pass compare/visit closures that only write enclosing locals);
// dynamic interface calls are devirtualized against every module type
// implementing the interface, and count as unknown only when no
// implementation is found; a call result is a fresh value unless the
// call is a method call, whose result is conservatively rooted at the
// receiver (getter idiom: s.Ledger().Record(...) writes s).

// rootKind says where an abstract write lands.
type rootKind int

const (
	rootLocal  rootKind = iota // function-local: ignored
	rootRecv                   // the receiver
	rootParam                  // parameter index
	rootGlobal                 // package-level variable
)

// writeRoot is one abstract storage location.
type writeRoot struct {
	kind   rootKind
	param  int
	global *types.Var
}

// callSite is one statically-resolved call: effects of each callee are
// replayed into the caller with the callee's receiver/params re-rooted
// at recvRoot/argRoots.
type callSite struct {
	callees  []*types.Func
	pos      token.Pos
	recvRoot writeRoot
	argRoots []writeRoot
	dynamic  bool // devirtualized interface call
}

// funcSummary accumulates one function's effects across the fixed
// point. recvWrite/paramWrite/globals/unknown include propagated
// callee effects; the direct* fields keep the function's own
// contribution so findings land at origins only.
type funcSummary struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	recvWrite  bool
	paramWrite map[int]bool
	globals    map[*types.Var]bool
	unknown    bool

	directGlobals  map[*types.Var]token.Pos
	directUnknowns []unknownCall
	calls          []callSite
	suppressed     bool
}

type unknownCall struct {
	pos  token.Pos
	what string
}

// PurityClass is the report classification, ordered weakest to
// strongest contract violation.
type PurityClass string

const (
	ClassPure          PurityClass = "pure"
	ClassReceiverLocal PurityClass = "receiver-local"
	ClassParamWriting  PurityClass = "param-writing"
	ClassUnknown       PurityClass = "unknown"
	ClassSharedWriting PurityClass = "shared-writing"
)

// PurityFunc is one function's entry in the report.
type PurityFunc struct {
	Func       string      `json:"func"`
	Class      PurityClass `json:"class"`
	Pairing    bool        `json:"pairing"`
	Writes     []string    `json:"writes,omitempty"`
	Suppressed bool        `json:"suppressed,omitempty"`
}

// PurityReport is the committed purity section of ANALYSIS.json.
type PurityReport struct {
	// Roots are the tick-core entry points the reachability sweep
	// starts from; PairingRoots is the subset whose reachable set is
	// gated against shared writes.
	Roots        []string     `json:"roots"`
	PairingRoots []string     `json:"pairing_roots"`
	Functions    []PurityFunc `json:"functions"`
}

// defaultPurityRootTemplates name the tick entry points (report roots)
// with the module path abstracted as MOD. Both engines' tick loops and
// scheduler callbacks are covered so the report maps the whole tick
// core, not just the gated slice of it.
var defaultPurityRootTemplates = []string{
	"(*MOD/internal/simulate.runner).step",
	"(*MOD/internal/asim.engine).loop",
	"(*MOD/internal/randomized.Scheduler).Tick",
	"(*MOD/internal/randomized.TriangularScheduler).Tick",
	"(*MOD/internal/bt.Protocol).OnDeliver",
	"(*MOD/internal/bt.Protocol).OnTimer",
	"(*MOD/internal/asim.AsyncRandomized).OnDeliver",
	// Sharded tick barrier entry points: the per-lane proposal pass and
	// the sequential merge are rooted explicitly so the report keeps
	// mapping them even if an indirect call ever hides them from the
	// Tick-rooted sweep.
	"(*MOD/internal/randomized.Scheduler).runLane",
	"(*MOD/internal/randomized.Scheduler).merge",
	"(*MOD/internal/randomized.Scheduler).beginTick",
	"(*MOD/internal/randomized.TriangularScheduler).runIntentLane",
	"MOD/internal/shard.Run",
}

// defaultPairingRootTemplates are the per-peer pairing decisions — the
// functions a sharded tick would run concurrently across peers, and
// therefore the roots whose reachable set must stay free of shared
// writes.
var defaultPairingRootTemplates = []string{
	"(*MOD/internal/randomized.Scheduler).pickReceiver",
	"(*MOD/internal/randomized.Scheduler).pickReceiverComplete",
	"(*MOD/internal/randomized.Scheduler).pickBlock",
	"(*MOD/internal/randomized.TriangularScheduler).pickIntent",
	"(*MOD/internal/bt.Protocol).NextUpload",
	"(*MOD/internal/asim.AsyncRandomized).NextUpload",
	// The sharded tick's concurrent roots: one lane job per logical
	// shard runs these simultaneously, so everything they reach must
	// stay free of shared writes (lane-owned and parameter state only).
	"(*MOD/internal/randomized.Scheduler).runLane",
	"(*MOD/internal/randomized.TriangularScheduler).runIntentLane",
}

func expandRoots(templates []string, modulePath string) []string {
	out := make([]string, len(templates))
	for i, t := range templates {
		out[i] = strings.ReplaceAll(t, "MOD", modulePath)
	}
	return out
}

// DefaultPurityRoots returns the report roots for the given module.
func DefaultPurityRoots(modulePath string) []string {
	return expandRoots(defaultPurityRootTemplates, modulePath)
}

// DefaultPairingRoots returns the gated per-peer pairing roots.
func DefaultPairingRoots(modulePath string) []string {
	return expandRoots(defaultPairingRootTemplates, modulePath)
}

// ShardPurityAnalyzer gates the per-peer pairing paths: a function
// reachable from a pairing root that writes shared state, or that
// calls something the analysis cannot resolve, is a finding at its
// origin. It also fills the gate report's purity section, which the
// gate compares against the committed baseline.
func ShardPurityAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "shard-purity",
		Doc:    "functions on per-peer pairing paths must not write shared state (prerequisite for tick sharding)",
		module: runShardPurity,
	}
}

func runShardPurity(m *moduleRun) error {
	purity, findings, err := Purity(m.path, m.fset, m.pkgs, DefaultPairingRoots(m.path), DefaultPurityRoots(m.path))
	if err != nil {
		return err
	}
	m.report.Purity = purity
	m.report.Findings = append(m.report.Findings, findings...)
	return nil
}

// stdWriteArg maps fully-qualified standard-library callables to the
// argument index they mutate; every other std call is effect-neutral
// (it cannot reach module globals).
var stdWriteArg = map[string]int{
	"sort.Slice":          0,
	"sort.SliceStable":    0,
	"sort.Sort":           0,
	"sort.Stable":         0,
	"sort.Ints":           0,
	"sort.Float64s":       0,
	"sort.Strings":        0,
	"container/heap.Push": 0,
	"container/heap.Pop":  0,
	"container/heap.Init": 0,
	"container/heap.Fix":  0,
}

// Purity runs the shard-purity analysis over the loaded packages.
// modulePath scopes "module-internal"; pairingRoots and reportRoots
// are FullName-formatted function names (see DefaultPairingRoots).
// It returns the report, the gate findings (shared-writing/unknown
// functions reachable from pairing roots, reported at origins), and an
// error if a named root does not exist — a renamed picker must update
// the root list, not silently shrink the certified surface.
func Purity(modulePath string, fset *token.FileSet, pkgs []*Package, pairingRoots, reportRoots []string) (*PurityReport, []Finding, error) {
	a := &purityAnalysis{
		modulePath: modulePath,
		fset:       fset,
		summaries:  make(map[*types.Func]*funcSummary),
		reporter:   NewReporter(fset, "shard-purity", pkgs),
	}
	a.buildTypeIndex(pkgs)
	for _, pkg := range pkgs {
		a.collect(pkg)
	}
	a.resolveCalls()
	a.fixedPoint()

	roots, missing := a.lookupRoots(append(append([]string{}, reportRoots...), pairingRoots...))
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("lint: purity roots not found (renamed? update the root list): %s",
			strings.Join(missing, ", "))
	}
	pairing, _ := a.lookupRoots(pairingRoots)

	reachable := a.reach(roots)
	pairReach := a.reach(pairing)

	report := &PurityReport{
		Roots:        sortedNames(reportRoots),
		PairingRoots: sortedNames(pairingRoots),
	}
	var names []*types.Func
	for fn := range reachable {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].FullName() < names[j].FullName() })
	for _, fn := range names {
		s := a.summaries[fn]
		report.Functions = append(report.Functions, PurityFunc{
			Func:       fn.FullName(),
			Class:      a.classOf(s),
			Pairing:    pairReach[fn],
			Writes:     a.writesOf(s),
			Suppressed: s.suppressed,
		})
		if !pairReach[fn] || s.suppressed {
			continue
		}
		// Gate findings at origins only: the chain above an impure
		// callee inherits its class in the report, but the finding
		// points at the code that must change.
		for g, pos := range s.directGlobals {
			a.reporter.Reportf(pos,
				"write to shared %s reachable from a per-peer pairing path: sharding the tick (ROADMAP 1) requires shard-local writes only",
				globalName(g))
		}
		for _, u := range s.directUnknowns {
			a.reporter.Reportf(u.pos,
				"unresolvable %s reachable from a per-peer pairing path: the shard-purity contract cannot be certified through it",
				u.what)
		}
	}
	return report, a.reporter.Findings(), nil
}

func sortedNames(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func globalName(g *types.Var) string {
	if g.Pkg() != nil {
		return g.Pkg().Path() + "." + g.Name()
	}
	return g.Name()
}

type purityAnalysis struct {
	modulePath string
	fset       *token.FileSet
	summaries  map[*types.Func]*funcSummary
	reporter   *Reporter
	// namedTypes indexes every module-defined named type for interface
	// devirtualization.
	namedTypes []*types.Named
	// unresolved call sites discovered during collect, resolved against
	// summaries afterwards (a callee's summary may not exist yet while
	// its caller's body is walked).
}

func (a *purityAnalysis) buildTypeIndex(pkgs []*Package) {
	seen := make(map[*types.TypeName]bool)
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || seen[tn] {
				continue
			}
			seen[tn] = true
			// Uninstantiated generic types have no complete method set
			// to devirtualize against; skip them.
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				a.namedTypes = append(a.namedTypes, named)
			}
		}
	}
	sort.Slice(a.namedTypes, func(i, j int) bool {
		return a.namedTypes[i].String() < a.namedTypes[j].String()
	})
}

func (a *purityAnalysis) isInternal(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == a.modulePath || strings.HasPrefix(p, a.modulePath+"/") ||
		// Fixture packages loaded under fake paths are module-internal
		// for the tests that drive them.
		strings.HasPrefix(p, "fixture/")
}

// collect builds the direct-effect summary of every function declared
// in pkg. Function literals are walked as part of their enclosing
// declaration, so a closure's writes to enclosing parameters or
// receiver fields are attributed to the encloser.
func (a *purityAnalysis) collect(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			s := &funcSummary{
				fn:            fn,
				decl:          fd,
				pkg:           pkg,
				paramWrite:    make(map[int]bool),
				globals:       make(map[*types.Var]bool),
				directGlobals: make(map[*types.Var]token.Pos),
				suppressed:    a.reporter.Suppressed(fd.Pos()),
			}
			a.summaries[fn] = s
			w := &bodyWalker{a: a, s: s, info: pkg.Info}
			w.resolveFrame()
			ast.Inspect(fd.Body, w.visit)
		}
	}
}

// bodyWalker walks one function body recording direct effects.
type bodyWalker struct {
	a    *purityAnalysis
	s    *funcSummary
	info *types.Info

	recvObj   *types.Var
	paramObjs []*types.Var
}

// resolveFrame binds the declaration's receiver and parameter objects
// so identifier roots can be resolved against them.
func (w *bodyWalker) resolveFrame() {
	sig, ok := w.s.fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if r := sig.Recv(); r != nil {
		w.recvObj = r
	}
	for i := 0; i < sig.Params().Len(); i++ {
		w.paramObjs = append(w.paramObjs, sig.Params().At(i))
	}
}

// rootOf resolves an lvalue (or argument) expression to its abstract
// storage root in this function's frame.
func (w *bodyWalker) rootOf(e ast.Expr) writeRoot {
	switch e := e.(type) {
	case *ast.Ident:
		obj := w.info.Uses[e]
		if obj == nil {
			obj = w.info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return writeRoot{kind: rootLocal}
		}
		if v == w.recvObj {
			return writeRoot{kind: rootRecv}
		}
		for i, p := range w.paramObjs {
			if v == p {
				return writeRoot{kind: rootParam, param: i}
			}
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return writeRoot{kind: rootGlobal, global: v}
		}
		return writeRoot{kind: rootLocal}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := w.info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := w.info.Uses[e.Sel].(*types.Var); ok {
					return writeRoot{kind: rootGlobal, global: v}
				}
				return writeRoot{kind: rootLocal}
			}
		}
		return w.rootOf(e.X)
	case *ast.StarExpr:
		return w.rootOf(e.X)
	case *ast.ParenExpr:
		return w.rootOf(e.X)
	case *ast.IndexExpr:
		return w.rootOf(e.X)
	case *ast.IndexListExpr:
		return w.rootOf(e.X)
	case *ast.SliceExpr:
		return w.rootOf(e.X)
	case *ast.TypeAssertExpr:
		return w.rootOf(e.X)
	case *ast.UnaryExpr:
		return w.rootOf(e.X)
	case *ast.CallExpr:
		// A method call's result stays rooted at its receiver (getter
		// idiom); a plain call's result is a fresh value.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if s, isMethod := w.info.Selections[sel]; isMethod && s.Kind() == types.MethodVal {
				return w.rootOf(sel.X)
			}
		}
		return writeRoot{kind: rootLocal}
	default:
		return writeRoot{kind: rootLocal}
	}
}

// write records a direct write to the resolved root.
func (w *bodyWalker) write(root writeRoot, pos token.Pos) {
	switch root.kind {
	case rootRecv:
		w.s.recvWrite = true
	case rootParam:
		w.s.paramWrite[root.param] = true
	case rootGlobal:
		w.s.globals[root.global] = true
		if _, ok := w.s.directGlobals[root.global]; !ok {
			w.s.directGlobals[root.global] = pos
		}
	}
}

func (w *bodyWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if n.Tok == token.DEFINE {
				// x := ... defines a new local unless x was already
				// bound; redefinitions in a multi-assign still resolve
				// through Uses and land below.
				if id, ok := lhs.(*ast.Ident); ok {
					if w.info.Defs[id] != nil {
						continue
					}
				}
			}
			w.write(w.rootOf(lhs), lhs.Pos())
		}
	case *ast.IncDecStmt:
		w.write(w.rootOf(n.X), n.X.Pos())
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			if n.Key != nil {
				w.write(w.rootOf(n.Key), n.Key.Pos())
			}
			if n.Value != nil {
				w.write(w.rootOf(n.Value), n.Value.Pos())
			}
		}
	case *ast.SendStmt:
		w.write(w.rootOf(n.Chan), n.Chan.Pos())
	case *ast.CallExpr:
		w.call(n)
	}
	return true
}

// call records one call expression: builtin effects, std effects, or a
// call site to be resolved against module summaries.
func (w *bodyWalker) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: F[T](...) — unwrap to the operand; Uses
	// resolves the ident to the generic origin function.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}

	argRoot := func(i int) writeRoot {
		if i < len(call.Args) {
			return w.rootOf(call.Args[i])
		}
		return writeRoot{kind: rootLocal}
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := w.info.Uses[fun].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "copy", "delete", "clear":
				w.write(argRoot(0), call.Pos())
			}
			return
		case *types.TypeName:
			return // conversion
		case *types.Func:
			w.recordCall(obj, writeRoot{kind: rootLocal}, call)
			return
		case *types.Var:
			// Calling a func-typed value: no effects by model (see the
			// package comment).
			return
		}
		// Conversion to an unnamed type, or unresolved: no effects.
		return
	case *ast.SelectorExpr:
		if sel, ok := w.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			callee, _ := sel.Obj().(*types.Func)
			if callee == nil {
				return
			}
			recvType := sel.Recv()
			if types.IsInterface(recvType) {
				w.dynamicCall(callee, fun.X, call)
				return
			}
			w.recordCall(callee, w.rootOf(fun.X), call)
			return
		}
		// Package-qualified call or struct field of func type.
		switch obj := w.info.Uses[fun.Sel].(type) {
		case *types.Func:
			w.recordCall(obj, writeRoot{kind: rootLocal}, call)
		case *types.TypeName:
			// conversion
		case *types.Var:
			// func-typed field value: no effects by model
		}
		return
	}
	// Calling the result of a call, an index expression, etc: a
	// func-typed value — no effects by model.
}

// recordCall stores a statically-resolved call site. Standard-library
// callees resolve immediately through the effects table; module
// callees defer to the fixed point.
func (w *bodyWalker) recordCall(callee *types.Func, recvRoot writeRoot, call *ast.CallExpr) {
	if !w.a.isInternal(callee.Pkg()) {
		if i, ok := stdWriteArg[callee.FullName()]; ok && i < len(call.Args) {
			w.write(w.rootOf(call.Args[i]), call.Pos())
		}
		return
	}
	// Generic origin: summaries are keyed by the origin function.
	callee = callee.Origin()
	args := make([]writeRoot, len(call.Args))
	for i := range call.Args {
		args[i] = w.rootOf(call.Args[i])
	}
	w.s.calls = append(w.s.calls, callSite{
		callees:  []*types.Func{callee},
		pos:      call.Pos(),
		recvRoot: recvRoot,
		argRoots: args,
	})
}

// dynamicCall devirtualizes an interface method call against every
// module type implementing the interface. External interfaces (error,
// sort.Interface via std helpers) are neutral; a module interface with
// no module implementation is an unknown.
func (w *bodyWalker) dynamicCall(iface *types.Func, recvExpr ast.Expr, call *ast.CallExpr) {
	if !w.a.isInternal(iface.Pkg()) {
		return
	}
	sig, _ := iface.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return
	}
	ifaceType, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if ifaceType == nil {
		return
	}
	var impls []*types.Func
	for _, named := range w.a.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, ifaceType) && !types.Implements(named, ifaceType) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, iface.Pkg(), iface.Name())
		if m, ok := obj.(*types.Func); ok {
			impls = append(impls, m.Origin())
		}
	}
	if len(impls) == 0 {
		w.s.unknown = true
		w.s.directUnknowns = append(w.s.directUnknowns, unknownCall{
			pos:  call.Pos(),
			what: fmt.Sprintf("dynamic call %s.%s (no module implementation found)", sig.Recv().Type(), iface.Name()),
		})
		return
	}
	args := make([]writeRoot, len(call.Args))
	for i := range call.Args {
		args[i] = w.rootOf(call.Args[i])
	}
	w.s.calls = append(w.s.calls, callSite{
		callees:  impls,
		pos:      call.Pos(),
		recvRoot: w.rootOf(recvExpr),
		argRoots: args,
		dynamic:  true,
	})
}

// resolveCalls prunes call sites whose callees have no summary
// (methods declared without bodies, or in packages outside the load);
// such callees become unknowns at the caller.
func (a *purityAnalysis) resolveCalls() {
	for _, s := range a.summaries {
		for i := range s.calls {
			cs := &s.calls[i]
			kept := cs.callees[:0]
			for _, c := range cs.callees {
				if _, ok := a.summaries[c]; ok {
					kept = append(kept, c)
				} else if !cs.dynamic {
					s.unknown = true
					s.directUnknowns = append(s.directUnknowns, unknownCall{
						pos:  cs.pos,
						what: fmt.Sprintf("call to %s (no analyzable body)", c.FullName()),
					})
				}
			}
			cs.callees = kept
		}
	}
}

// fixedPoint replays callee effects into callers, re-rooting the
// callee's receiver and parameter writes at the call site, until no
// summary changes. Suppressed origins keep their direct effects out of
// propagation: the annotation accepts the chain.
func (a *purityAnalysis) fixedPoint() {
	// Deterministic iteration order keeps any diagnostics stable.
	fns := make([]*types.Func, 0, len(a.summaries))
	for fn := range a.summaries {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })

	reRoot := func(s *funcSummary, site callSite, calleeRoot writeRoot) bool {
		var target writeRoot
		switch calleeRoot.kind {
		case rootRecv:
			target = site.recvRoot
		case rootParam:
			if calleeRoot.param < len(site.argRoots) {
				target = site.argRoots[calleeRoot.param]
			} else {
				target = writeRoot{kind: rootLocal} // variadic tail
			}
		case rootGlobal:
			target = calleeRoot
		default:
			return false
		}
		switch target.kind {
		case rootRecv:
			if !s.recvWrite {
				s.recvWrite = true
				return true
			}
		case rootParam:
			if !s.paramWrite[target.param] {
				s.paramWrite[target.param] = true
				return true
			}
		case rootGlobal:
			if !s.globals[target.global] {
				s.globals[target.global] = true
				return true
			}
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			s := a.summaries[fn]
			for _, site := range s.calls {
				for _, callee := range site.callees {
					c := a.summaries[callee]
					if c.suppressed {
						continue
					}
					if c.recvWrite && reRoot(s, site, writeRoot{kind: rootRecv}) {
						changed = true
					}
					for p := range c.paramWrite {
						if reRoot(s, site, writeRoot{kind: rootParam, param: p}) {
							changed = true
						}
					}
					for g := range c.globals {
						if reRoot(s, site, writeRoot{kind: rootGlobal, global: g}) {
							changed = true
						}
					}
					if c.unknown && !s.unknown {
						s.unknown = true
						changed = true
					}
				}
			}
		}
	}
}

// lookupRoots maps FullName strings to summarized functions.
func (a *purityAnalysis) lookupRoots(names []string) (map[*types.Func]bool, []string) {
	byName := make(map[string]*types.Func, len(a.summaries))
	for fn := range a.summaries {
		byName[fn.FullName()] = fn
	}
	roots := make(map[*types.Func]bool)
	var missing []string
	for _, name := range names {
		fn, ok := byName[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		roots[fn] = true
	}
	sort.Strings(missing)
	return roots, missing
}

// reach returns every summarized function reachable from roots over
// static (and devirtualized) call edges.
func (a *purityAnalysis) reach(roots map[*types.Func]bool) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	var stack []*types.Func
	for fn := range roots {
		if !seen[fn] {
			seen[fn] = true
			stack = append(stack, fn)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, site := range a.summaries[fn].calls {
			for _, callee := range site.callees {
				if !seen[callee] {
					seen[callee] = true
					stack = append(stack, callee)
				}
			}
		}
	}
	return seen
}

// classOf derives the report class from a converged summary. When an
// origin is suppressed its direct effects still show in its own class
// (the report stays honest) even though they were not propagated.
func (a *purityAnalysis) classOf(s *funcSummary) PurityClass {
	globals := len(s.globals) > 0 || len(s.directGlobals) > 0
	switch {
	case globals:
		return ClassSharedWriting
	case s.unknown:
		return ClassUnknown
	case len(s.paramWrite) > 0:
		return ClassParamWriting
	case s.recvWrite:
		return ClassReceiverLocal
	default:
		return ClassPure
	}
}

// writesOf renders the converged write set, sorted.
func (a *purityAnalysis) writesOf(s *funcSummary) []string {
	var out []string
	if s.recvWrite {
		out = append(out, "recv")
	}
	for p := range s.paramWrite {
		out = append(out, fmt.Sprintf("param:%d", p))
	}
	seen := make(map[*types.Var]bool)
	for g := range s.globals {
		seen[g] = true
	}
	for g := range s.directGlobals {
		seen[g] = true
	}
	for g := range seen {
		out = append(out, "global:"+globalName(g))
	}
	if s.unknown {
		out = append(out, "unknown-call")
	}
	sort.Strings(out)
	return out
}
