package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Escape-gate: PR 5 drove the steady-state tick to ~0 allocations and
// the figure suites down 22–31× in B/op; nothing but benchmarks
// guards that today, and benchmarks only catch regressions big enough
// to poke through noise. The gate instead asks the compiler: run
// `go build -gcflags=-m` over the module, collect the escape-analysis
// and inlining diagnostics for a declared list of hot-path functions,
// and fail `make check` on ANY drift from the committed baseline
// (ANALYSIS.json "escape") — a new value escaping to the heap, a
// parameter newly leaking into an allocation, or a previously
// inlinable helper becoming too complex to inline. Legitimate changes
// re-baseline with `cdvet -update`, which makes the cost visible in
// review instead of silent.
//
// Diagnostics are recorded per function as position-stripped sorted
// message multisets, so unrelated edits that only shift line numbers
// do not churn the baseline.

// GateStatus is one gated function's compiler verdict.
type GateStatus struct {
	Func      string   `json:"func"`
	CanInline bool     `json:"can_inline"`
	Escapes   []string `json:"escapes,omitempty"`
}

// EscapeReport is the committed escape section of ANALYSIS.json.
type EscapeReport struct {
	Gates []GateStatus `json:"gates"`
}

// defaultEscapeGateTemplates declare the hot-path functions held to
// their baselined allocation behavior, with the module path as MOD:
// the tick cores, the per-peer pickers, the bitset word scans, the
// trace and checkpoint append paths, the ledger/guard lookups on the
// pairing path, and the graph pairing arena.
var defaultEscapeGateTemplates = []string{
	// synchronous engine tick core
	"(*MOD/internal/simulate.runner).step",
	"MOD/internal/simulate.validate",
	"(*MOD/internal/simulate.capScratch).reset",
	"(*MOD/internal/simulate.capScratch).addUp",
	"(*MOD/internal/simulate.capScratch).addDown",
	// randomized scheduler + pickers; pickBlock and needsSomething build
	// the bound test and rarity they pass to swarm.PickBlock / Offers,
	// which must stay on the stack
	"(*MOD/internal/randomized.Scheduler).Tick",
	"(*MOD/internal/randomized.Scheduler).pairRounds",
	"(*MOD/internal/randomized.Scheduler).beginTick",
	"(*MOD/internal/randomized.Scheduler).pickReceiver",
	"(*MOD/internal/randomized.Scheduler).pickReceiverComplete",
	"(*MOD/internal/randomized.Scheduler).qualify",
	"(*MOD/internal/randomized.Scheduler).qualifiedIndexed",
	"(*MOD/internal/randomized.Scheduler).needsSomething",
	"(*MOD/internal/randomized.Scheduler).pickBlock",
	"(*MOD/internal/randomized.Scheduler).localFreq",
	"(*MOD/internal/randomized.Scheduler).removeAvail",
	// sharded tick: per-lane proposal pass + barrier merge
	"(*MOD/internal/randomized.Scheduler).runLane",
	"(*MOD/internal/randomized.Scheduler).attempt",
	"(*MOD/internal/randomized.Scheduler).merge",
	"(*MOD/internal/randomized.Scheduler).laneRes",
	"(*MOD/internal/randomized.Scheduler).blockInFlight",
	"(*MOD/internal/randomized.Scheduler).blockInFlightGlobal",
	"(*MOD/internal/randomized.Scheduler).proposeRound",
	"(*MOD/internal/randomized.Scheduler).mergeLane",
	"(*MOD/internal/randomized.lane).reserve",
	"MOD/internal/randomized.mix64",
	"MOD/internal/randomized.prioBase",
	// incremental eligibility index (the O(n) scan replacement)
	"(*MOD/internal/randomized.eligIndex).add",
	"(*MOD/internal/randomized.eligIndex).remove",
	"(*MOD/internal/randomized.eligIndex).has",
	"(*MOD/internal/randomized.eligIndex).compact",
	"(*MOD/internal/randomized.eligIndex).missesAny",
	// shard decomposition helpers on the lane path
	"MOD/internal/shard.Of",
	"MOD/internal/shard.Shuffle32",
	// triangular settlement layer (the rest of its tick is the
	// Scheduler's, gated above)
	"(*MOD/internal/randomized.TriangularScheduler).Tick",
	"(*MOD/internal/randomized.TriangularScheduler).pickIntent",
	"(*MOD/internal/randomized.TriangularScheduler).settleHeld",
	"(*MOD/internal/randomized.TriangularScheduler).emit",
	"(*MOD/internal/randomized.TriangularScheduler).runIntentLane",
	"(*MOD/internal/randomized.TriangularScheduler).proposeIntent",
	// bt protocol
	"(*MOD/internal/bt.Protocol).NextUpload",
	"(*MOD/internal/bt.Protocol).recomputeChokes",
	"(*MOD/internal/bt.Protocol).rotateOptimistic",
	"(*MOD/internal/bt.Protocol).perm",
	// shared swarm core on both engines' per-transfer path, and the
	// one block picker and interest test every scheduler and protocol
	// calls
	"(*MOD/internal/swarm.Core).Deliver",
	"(*MOD/internal/swarm.Core).Resolve",
	"(*MOD/internal/swarm.Peers).Alive",
	"MOD/internal/swarm.PickBlock",
	"MOD/internal/swarm.Offers",
	// asynchronous engine + its randomized protocol
	"(*MOD/internal/asim.engine).loop",
	"(*MOD/internal/asim.engine).tryStartUpload",
	"(*MOD/internal/asim.engine).finishTransfer",
	"(*MOD/internal/asim.engine).newEvent",
	"(*MOD/internal/asim.eventQueue).push",
	"(*MOD/internal/asim.eventQueue).pop",
	"(*MOD/internal/asim.State).addInFlight",
	"(*MOD/internal/asim.State).removeInFlight",
	"(*MOD/internal/asim.AsyncRandomized).NextUpload",
	"(*MOD/internal/asim.AsyncRandomized).pickTarget",
	// bitset word scans
	"(*MOD/internal/bitset.Set).Has",
	"(*MOD/internal/bitset.Set).Add",
	"(*MOD/internal/bitset.Set).IterDiff",
	"(*MOD/internal/bitset.Set).IterateMissing",
	"(*MOD/internal/bitset.Set).FirstMissingIn",
	"(*MOD/internal/bitset.Set).AnyMissingFrom",
	"(*MOD/internal/bitset.Set).AccumulateCounts",
	"(*MOD/internal/bitset.Set).Iter",
	// columnar trace append + cursor
	"(*MOD/internal/trace.Log).Reserve",
	"(*MOD/internal/trace.Log).AppendTick",
	"(*MOD/internal/trace.Log).appendKind",
	"(*MOD/internal/trace.Cursor).NextSpan",
	"(*MOD/internal/trace.Cursor).NextTick",
	// barter mechanisms on the pairing path
	"(*MOD/internal/mechanism.Ledger).CanSend",
	"(*MOD/internal/mechanism.Ledger).Record",
	"(*MOD/internal/mechanism.Ledger).Unrecord",
	"MOD/internal/mechanism.pairKey",
	// quarantine guard on the pairing path
	"(*MOD/internal/adversary.Guard).Strike",
	"(*MOD/internal/adversary.Guard).Blocked",
	"MOD/internal/adversary.guardKey",
	"(*MOD/internal/adversary.Plan).Refuses",
	// checkpoint encoder inner loops
	"(*MOD/internal/checkpoint.Encoder).U64",
	"(*MOD/internal/checkpoint.Encoder).Uint64s",
	"(*MOD/internal/checkpoint.Encoder).Int32s",
	"MOD/internal/checkpoint.appendU64",
	// graph pairing arena
	"MOD/internal/graph.pairStubs",
	"MOD/internal/graph.addPair",
	// rng hot path
	"(*MOD/internal/xrand.Rand).Uint64",
	"(*MOD/internal/xrand.Rand).Intn",
	"(*MOD/internal/xrand.Rand).Shuffle",
	"(*MOD/internal/xrand.Rand).PermInto",
}

// DefaultEscapeGates returns the gated hot-path function list for the
// given module.
func DefaultEscapeGates(modulePath string) []string {
	return expandRoots(defaultEscapeGateTemplates, modulePath)
}

// EscapeGateAnalyzer holds the declared hot-path functions to their
// baselined escape and inlining verdicts. It reports no findings of
// its own: it fills the gate report's escape section, and any
// difference from the committed baseline is drift.
func EscapeGateAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "escape-gate",
		Doc:    "declared hot-path functions must match their baselined escape/inlining behavior",
		module: runEscapeGate,
	}
}

func runEscapeGate(m *moduleRun) error {
	diags, err := BuildEscapeDiagnostics(m.root)
	if err != nil {
		return err
	}
	escape, err := Escape(m.root, m.fset, m.pkgs, DefaultEscapeGates(m.path), diags)
	if err != nil {
		return err
	}
	m.report.Escape = escape
	return nil
}

// BuildEscapeDiagnostics runs `go build -gcflags=-m ./...` in
// moduleRoot and returns the raw diagnostic lines. The Go build cache
// replays -m diagnostics on cache hits (verified on go1.24), so a
// clean tree re-gates in roughly `go build` no-op time.
func BuildEscapeDiagnostics(moduleRoot string) ([]string, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m: %v\n%s", err, out)
	}
	return strings.Split(string(out), "\n"), nil
}

// funcExtent is one declared function's file span.
type funcExtent struct {
	start, end int // lines, inclusive
	name       string
}

// Escape computes the gate statuses for the declared hot-path
// functions. pkgs must be the module's packages (the loader's view is
// used to map diagnostic positions to enclosing declarations); diags
// come from BuildEscapeDiagnostics. A gate naming a function that no
// longer exists is an error: renames must update the gate list.
func Escape(moduleRoot string, fset *token.FileSet, pkgs []*Package, gates []string, diags []string) (*EscapeReport, error) {
	// Index every gated declaration's extent by file.
	gateSet := make(map[string]bool, len(gates))
	for _, g := range gates {
		gateSet[g] = true
	}
	extents := make(map[string][]funcExtent) // abs file path -> extents
	found := make(map[string]bool, len(gates))
	for _, pkg := range pkgs {
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
				name := fn.FullName()
				if !gateSet[name] {
					continue
				}
				found[name] = true
				start := fset.Position(fd.Pos())
				end := fset.Position(fd.End())
				extents[start.Filename] = append(extents[start.Filename], funcExtent{
					start: start.Line, end: end.Line, name: name,
				})
			}
		}
	}
	var missing []string
	for _, g := range gates {
		if !found[g] {
			missing = append(missing, g)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("lint: escape gates name functions that do not exist (renamed? update the gate list): %s",
			strings.Join(missing, ", "))
	}

	status := make(map[string]*GateStatus, len(gates))
	for _, g := range gates {
		status[g] = &GateStatus{Func: g}
	}
	for _, line := range diags {
		file, lineNo, msg, ok := parseDiag(line)
		if !ok {
			continue
		}
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(moduleRoot, file)
		}
		exts := extents[abs]
		if exts == nil {
			continue
		}
		for _, ext := range exts {
			if lineNo < ext.start || lineNo > ext.end {
				continue
			}
			st := status[ext.name]
			switch {
			case strings.HasPrefix(msg, "can inline ") && lineNo == ext.start:
				st.CanInline = true
			case isEscapeDiag(msg):
				st.Escapes = append(st.Escapes, msg)
			}
			break
		}
	}
	report := &EscapeReport{}
	for _, g := range gates {
		st := status[g]
		sort.Strings(st.Escapes)
		report.Gates = append(report.Gates, *st)
	}
	sort.Slice(report.Gates, func(i, j int) bool { return report.Gates[i].Func < report.Gates[j].Func })
	return report, nil
}

// parseDiag splits a "path/file.go:line:col: message" diagnostic.
func parseDiag(line string) (file string, lineNo int, msg string, ok bool) {
	if strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "" {
		return "", 0, "", false
	}
	i := strings.Index(line, ".go:")
	if i < 0 {
		return "", 0, "", false
	}
	file = line[:i+3]
	rest := line[i+4:]
	j := strings.IndexByte(rest, ':')
	if j < 0 {
		return "", 0, "", false
	}
	if _, err := fmt.Sscanf(rest[:j], "%d", &lineNo); err != nil {
		return "", 0, "", false
	}
	rest = rest[j+1:]
	// column, then ": message"
	k := strings.Index(rest, ": ")
	if k < 0 {
		return "", 0, "", false
	}
	return file, lineNo, rest[k+2:], true
}

// isEscapeDiag reports whether a -m message describes a heap
// allocation the gate cares about. "does not escape" and "leaking
// param" lines are informational, not allocations.
func isEscapeDiag(msg string) bool {
	if strings.Contains(msg, "does not escape") {
		return false
	}
	return strings.HasSuffix(msg, "escapes to heap") ||
		strings.HasPrefix(msg, "moved to heap:")
}

// CompareEscape diffs a freshly-computed report against the committed
// baseline, returning one human-readable line per drift.
func CompareEscape(baseline, current *EscapeReport) []string {
	old := make(map[string]GateStatus, len(baseline.Gates))
	for _, g := range baseline.Gates {
		old[g.Func] = g
	}
	cur := make(map[string]GateStatus, len(current.Gates))
	for _, g := range current.Gates {
		cur[g.Func] = g
	}
	var diffs []string
	for _, g := range current.Gates {
		o, ok := old[g.Func]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: gated but absent from baseline (run cdvet -update)", g.Func))
			continue
		}
		if o.CanInline && !g.CanInline {
			diffs = append(diffs, fmt.Sprintf("%s: lost inlining (baseline: inlinable)", g.Func))
		}
		if !o.CanInline && g.CanInline {
			diffs = append(diffs, fmt.Sprintf("%s: newly inlinable (improvement — run cdvet -update to lock it in)", g.Func))
		}
		added, removed := diffStrings(o.Escapes, g.Escapes)
		for _, m := range added {
			diffs = append(diffs, fmt.Sprintf("%s: NEW heap escape: %s", g.Func, m))
		}
		for _, m := range removed {
			diffs = append(diffs, fmt.Sprintf("%s: escape fixed (improvement — run cdvet -update to lock it in): %s", g.Func, m))
		}
	}
	for _, g := range baseline.Gates {
		if _, ok := cur[g.Func]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: in baseline but no longer gated (run cdvet -update)", g.Func))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// diffStrings compares two sorted multisets.
func diffStrings(old, new []string) (added, removed []string) {
	counts := make(map[string]int)
	for _, s := range old {
		counts[s]--
	}
	for _, s := range new {
		counts[s]++
	}
	for s, c := range counts {
		for ; c > 0; c-- {
			added = append(added, s)
		}
		for ; c < 0; c++ {
			removed = append(removed, s)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}
