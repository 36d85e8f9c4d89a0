package randomized

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"testing"

	"barterdist/internal/analysis"
	"barterdist/internal/graph"
	"barterdist/internal/mechanism"
	"barterdist/internal/simulate"
	"barterdist/internal/xrand"
)

func TestNewTriangularValidation(t *testing.T) {
	g := graph.Complete(8)
	if _, err := NewTriangular(TriangularOptions{}); err == nil {
		t.Error("missing graph should error")
	}
	if _, err := NewTriangular(TriangularOptions{Graph: g, Policy: Policy(42)}); err == nil {
		t.Error("bad policy should error")
	}
	if err := (&TriangularOptions{Graph: g, DownloadCap: -1}).Validate(); err == nil {
		t.Error("negative download cap should error")
	}
	if err := (&TriangularOptions{Graph: g, CreditLimit: -1}).Validate(); err == nil {
		t.Error("negative credit limit should error")
	}
	ts, err := NewTriangular(TriangularOptions{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Ledger() == nil || ts.Ledger().Limit() != 1 {
		t.Error("default credit limit should be 1")
	}
}

func TestTriangularSizeMismatch(t *testing.T) {
	ts, err := NewTriangular(TriangularOptions{Graph: graph.Complete(4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulate.Run(simulate.Config{Nodes: 8, Blocks: 2}, ts); err == nil {
		t.Fatal("size mismatch not detected")
	}
}

func TestTriangularCompletesAndVerifies(t *testing.T) {
	rng := xrand.New(8)
	for _, tc := range []struct {
		name   string
		degree int
		policy Policy
		credit int
	}{
		// Degrees sit above the Figure 6/7 stall thresholds for each
		// policy at this size; the Random policy additionally gets
		// s*d >= k so a late straggler can always borrow its way to
		// completion (the endgame deadlock is a real property of credit
		// barter at marginal parameters, exercised separately).
		{"d32-random", 32, Random, 2},
		{"d16-rarest", 16, RarestFirst, 1},
		{"d16-local", 16, LocalRare, 1},
	} {
		g, err := graph.RandomRegular(64, tc.degree, rng)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := NewTriangular(TriangularOptions{
			Graph: g, Policy: tc.policy, CreditLimit: tc.credit, DownloadCap: 1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate.Run(simulate.Config{
			Nodes: 64, Blocks: 64, DownloadCap: 1, MaxTicks: 30000, RecordTrace: true,
		}, ts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.CompletionTime < analysis.CooperativeLowerBound(64, 64) {
			t.Fatalf("%s: impossible T=%d", tc.name, res.CompletionTime)
		}
		if err := mechanism.VerifyTriangular(res.Trace.Cursor(), tc.credit); err != nil {
			t.Errorf("%s: trace violates triangular barter: %v", tc.name, err)
		}
	}
}

func TestTriangularNotWorseThanPlainCreditOnSparseOverlay(t *testing.T) {
	// The paper's Section 3.3 motivation: triangular settlement adds
	// exchange opportunities on low-degree overlays. Compare against
	// plain credit-limited at the same degree, seed-for-seed.
	rng := xrand.New(10)
	const n, k, d = 64, 64, 10
	g, err := graph.RandomRegular(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	budget := 20000
	runPlain := func() int {
		s, err := New(Options{Graph: g, CreditLimit: 1, DownloadCap: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate.Run(simulate.Config{Nodes: n, Blocks: k, DownloadCap: 1, MaxTicks: budget}, s)
		if err != nil {
			return budget
		}
		return res.CompletionTime
	}
	runTri := func() int {
		s, err := NewTriangular(TriangularOptions{Graph: g, CreditLimit: 1, DownloadCap: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate.Run(simulate.Config{Nodes: n, Blocks: k, DownloadCap: 1, MaxTicks: budget}, s)
		if err != nil {
			return budget
		}
		return res.CompletionTime
	}
	plain, tri := runPlain(), runTri()
	if tri > plain*2 {
		t.Errorf("triangular (T=%d) much worse than plain credit (T=%d) on degree-%d overlay", tri, plain, d)
	}
	t.Logf("degree %d: plain credit T=%d, triangular T=%d", d, plain, tri)
}

func TestRewireCompletesAndInvalidatesCache(t *testing.T) {
	rng := xrand.New(11)
	g, err := graph.RandomRegular(32, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Graph: g, DownloadCap: 1, Seed: 12, RewireEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(simulate.Config{Nodes: 32, Blocks: 32, DownloadCap: 1}, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime < analysis.CooperativeLowerBound(32, 32) {
		t.Fatal("impossible completion time")
	}
	// The overlay must actually have been replaced.
	if s.opts.Graph == g {
		t.Error("graph was never rewired")
	}
}

func TestRewireValidation(t *testing.T) {
	if _, err := New(Options{RewireEvery: 3}); err == nil {
		t.Error("rewire without a graph should error")
	}
	if _, err := New(Options{RewireEvery: -1}); err == nil {
		t.Error("negative rewire interval should error")
	}
	// Irregular graph: chain has degree-1 endpoints.
	if _, err := New(Options{Graph: graph.Chain(8), RewireEvery: 3}); err == nil {
		t.Error("rewiring an irregular graph should error")
	}
}

func TestRewireHelpsCreditBarterOnSparseOverlay(t *testing.T) {
	// The paper's closing experiment idea: a low-degree overlay with
	// periodic neighbor changes. Under credit barter at a degree where
	// the static overlay stalls, rewiring should make progress.
	rng := xrand.New(13)
	const n, k, d = 64, 64, 6
	budget := 30000
	g1, err := graph.RandomRegular(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	static, err := New(Options{Graph: g1, CreditLimit: 1, DownloadCap: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, errStatic := simulate.Run(simulate.Config{Nodes: n, Blocks: k, DownloadCap: 1, MaxTicks: budget}, static)

	g2, err := graph.RandomRegular(n, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	rewired, err := New(Options{Graph: g2, CreditLimit: 1, DownloadCap: 1, Seed: 4, RewireEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	resRewired, errRewired := simulate.Run(simulate.Config{Nodes: n, Blocks: k, DownloadCap: 1, MaxTicks: budget}, rewired)

	if errRewired != nil {
		if errors.Is(errRewired, simulate.ErrMaxTicks) && errStatic == nil {
			t.Errorf("rewired overlay stalled while static completed")
		}
		t.Skipf("both configurations stalled at degree %d (budget %d)", d, budget)
	}
	if errStatic == nil {
		t.Logf("both completed; rewired T=%d", resRewired.CompletionTime)
	} else {
		t.Logf("static stalled, rewired completed in T=%d — the paper's conjecture holds", resRewired.CompletionTime)
	}
}

// referenceSettle is the triangular scheduler's former per-tick ledger
// charge, kept as the oracle for mechanism.Settlement: 2-cycles cancel
// over the tick's pairs in lexicographic order, then 3-cycles, with
// third parties tried in the order their edges appeared; every transfer
// left is charged to record.
func referenceSettle(tick []simulate.Transfer, record func(u, v int32)) {
	remaining := make(map[[2]int32]int, len(tick))
	next := make(map[int32][]int32, len(tick))
	for _, tr := range tick {
		if tr.From == 0 || tr.To == 0 {
			continue
		}
		remaining[[2]int32{tr.From, tr.To}]++
		next[tr.From] = append(next[tr.From], tr.To)
	}
	use := func(u, v int32) bool {
		key := [2]int32{u, v}
		if remaining[key] > 0 {
			remaining[key]--
			return true
		}
		return false
	}
	keys := make([][2]int32, 0, len(remaining))
	for key := range remaining { //lint:ordered keys are sorted below
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		u, v := key[0], key[1]
		c := remaining[key]
		for c > 0 && remaining[[2]int32{v, u}] > 0 {
			remaining[key]--
			remaining[[2]int32{v, u}]--
			c = remaining[key]
		}
	}
	for _, key := range keys {
		u, v := key[0], key[1]
		if remaining[key] == 0 {
			continue
		}
		for _, w := range next[v] {
			if w == u || remaining[key] == 0 {
				continue
			}
			for remaining[key] > 0 && remaining[[2]int32{v, w}] > 0 && remaining[[2]int32{w, u}] > 0 {
				if !use(u, v) || !use(v, w) || !use(w, u) {
					break
				}
			}
		}
	}
	for _, key := range keys {
		for i := 0; i < remaining[key]; i++ {
			record(key[0], key[1])
		}
	}
}

// settleCharges returns what mechanism.Settlement charges for tick, as
// a count per directed edge.
func settleCharges(tick []simulate.Transfer) map[[2]int32]int {
	var st mechanism.Settlement
	for _, tr := range tick {
		st.Add(tr.From, tr.To)
	}
	got := make(map[[2]int32]int)
	st.Settle(func(u, v int32, c int) { got[[2]int32{u, v}] += c })
	return got
}

// referenceCharges is settleCharges for referenceSettle.
func referenceCharges(tick []simulate.Transfer) map[[2]int32]int {
	want := make(map[[2]int32]int)
	referenceSettle(tick, func(u, v int32) { want[[2]int32{u, v}]++ })
	return want
}

// TestSettlementMatchesReferenceSettle shows that mechanism.Settlement
// charges exactly what the scheduler's former settlement charged on
// every tick the scheduler can emit: each client uploads at most once
// per tick, so the tick's client transfers form a functional graph
// whose cycles are disjoint and the cancellation order cannot matter.
// The server, which the ledger exempts, may upload to several clients.
func TestSettlementMatchesReferenceSettle(t *testing.T) {
	rng := xrand.New(23)
	cycles := 0
	for trial := 0; trial < 6000; trial++ {
		n := 2 + rng.Intn(14) // nodes, the server included
		var tick []simulate.Transfer
		for u := 1; u < n; u++ {
			if rng.Intn(4) == 0 {
				continue // u stays silent this tick
			}
			v := rng.Intn(n - 1) // any node but u, the server included
			if v >= u {
				v++
			}
			tick = append(tick, simulate.Transfer{From: int32(u), To: int32(v)})
		}
		for i := rng.Intn(3); i > 0; i-- {
			tick = append(tick, simulate.Transfer{From: 0, To: int32(1 + rng.Intn(n-1))})
		}
		// The scheduler emits in ascending uploader order; any order
		// must do, so shuffle.
		for i := len(tick) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			tick[i], tick[j] = tick[j], tick[i]
		}
		got, want := settleCharges(tick), referenceCharges(tick)
		if !maps.Equal(got, want) {
			t.Fatalf("tick %v: Settlement charges %v, reference charges %v", tick, got, want)
		}
		clients := 0
		for _, tr := range tick {
			if tr.From != 0 && tr.To != 0 {
				clients++
			}
		}
		charged := 0
		for _, c := range got {
			charged += c
		}
		if charged < clients {
			cycles++
		}
	}
	if cycles == 0 {
		t.Fatal("no trial settled a cycle; the property was never exercised")
	}
}

// TestSettlementFollowsVerifierOnSharedEdges documents the one place the
// rule moved: when two triangles share an edge (a node uploading twice
// in a tick, which the scheduler never emits), Settlement tries third
// parties in ascending id, as VerifyTriangular always has (it settles
// through Settlement), where the former scheduler settlement tried them
// in the order their edges appeared.
func TestSettlementFollowsVerifierOnSharedEdges(t *testing.T) {
	// 1->2 closes the triangle through 4 and the one through 3; 2's
	// edge to 4 appears first.
	tick := []simulate.Transfer{{From: 1, To: 2}, {From: 2, To: 4}, {From: 2, To: 3}, {From: 3, To: 1}, {From: 4, To: 1}}
	got := fmt.Sprint(settleCharges(tick))
	if want := fmt.Sprint(map[[2]int32]int{{2, 4}: 1, {4, 1}: 1}); got != want {
		t.Errorf("Settlement charges %s, want %s (the triangle through 3 settles)", got, want)
	}
	ref := fmt.Sprint(referenceCharges(tick))
	if want := fmt.Sprint(map[[2]int32]int{{2, 3}: 1, {3, 1}: 1}); ref != want {
		t.Errorf("reference charges %s, want %s (the triangle through 4 settles)", ref, want)
	}
}

// TestSettleHeldApprovesShortHeldCycles drives the held-intent
// settlement over a hand-built intent table. Seeded runs rarely hold a
// short cycle of credit-blocked intents, so the schedule goldens alone
// do not show that it approves exactly the 2- and 3-cycles whose
// members are all held, nor that a warm call allocates nothing.
func TestSettleHeldApprovesShortHeldCycles(t *testing.T) {
	edges := map[int32]int32{
		1: 2, 2: 3, 3: 1, // 3-cycle
		4: 5, 5: 6, 6: 7, 7: 4, // 4-cycle
		8: 9, 9: 8, // 2-cycle
		10: 11,         // 11 files no intent
		12: 13, 13: 12, // 13 is approved
		14: 15, 15: 16, 16: 15, // a cycle that misses 14
	}
	ts, err := NewTriangular(TriangularOptions{Graph: graph.Complete(17)})
	if err != nil {
		t.Fatal(err)
	}
	ts.intent = make([]int32, 17)
	ts.approved = make([]bool, 17)
	for u := range ts.intent {
		ts.intent[u] = -1
		if v, ok := edges[int32(u)]; ok {
			ts.intent[u] = v
			ts.intenders = append(ts.intenders, int32(u))
		}
	}
	settle := func() {
		clear(ts.approved)
		ts.approved[13] = true
		ts.settleHeld()
	}
	settle()
	for _, tc := range []struct {
		name    string
		members []int
		settles bool
	}{
		{"3-cycle", []int{1, 2, 3}, true},
		{"2-cycle", []int{8, 9}, true},
		{"4-cycle", []int{4, 5, 6, 7}, false},
		{"cycle through an approved node", []int{12}, false},
		{"chain into a node with no intent", []int{10, 11}, false},
		{"cycle that misses its start node", []int{14}, false},
		{"cycle the missed start node runs into", []int{15, 16}, true},
	} {
		for _, u := range tc.members {
			if ts.approved[u] != tc.settles {
				t.Errorf("%s: node %d approved = %v, want %v", tc.name, u, ts.approved[u], tc.settles)
			}
		}
	}
	if !ts.approved[13] {
		t.Error("the node approved on credit lost its approval")
	}
	if n := testing.AllocsPerRun(50, settle); n != 0 {
		t.Errorf("settleHeld allocates %v times per warm call", n)
	}
}
