package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"barterdist/internal/xrand"
)

func TestAddHasRemove(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("new set has bit %d", i)
		}
		if !s.Add(i) {
			t.Fatalf("Add(%d) reported already set", i)
		}
		if s.Add(i) {
			t.Fatalf("second Add(%d) reported newly set", i)
		}
		if !s.Has(i) {
			t.Fatalf("bit %d missing after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	if !s.Remove(64) {
		t.Fatal("Remove(64) reported not set")
	}
	if s.Remove(64) {
		t.Fatal("second Remove(64) reported set")
	}
	if s.Count() != 7 {
		t.Fatalf("Count after Remove = %d, want 7", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Has(-1)": func() { s.Has(-1) },
		"Has(10)": func() { s.Has(10) },
		"Add(10)": func() { s.Add(10) },
		"Remove(": func() { s.Remove(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("DiffCount across capacities did not panic")
		}
	}()
	a.DiffCount(b)
}

func TestFullEmpty(t *testing.T) {
	s := New(70)
	if !s.Empty() || s.Full() {
		t.Fatal("new set should be empty and not full")
	}
	for i := 0; i < 70; i++ {
		s.Add(i)
	}
	if s.Empty() || !s.Full() {
		t.Fatal("saturated set should be full")
	}
	// Zero-capacity set is vacuously full.
	z := New(0)
	if !z.Full() || !z.Empty() {
		t.Fatal("zero-capacity set should be both full and empty")
	}
}

func TestDiffCountAndAnyMissingFrom(t *testing.T) {
	a, b := New(200), New(200)
	for _, i := range []int{3, 64, 100, 199} {
		a.Add(i)
	}
	for _, i := range []int{3, 100} {
		b.Add(i)
	}
	if got := a.DiffCount(b); got != 2 {
		t.Fatalf("DiffCount = %d, want 2", got)
	}
	if got := b.DiffCount(a); got != 0 {
		t.Fatalf("reverse DiffCount = %d, want 0", got)
	}
	if !a.AnyMissingFrom(b) {
		t.Fatal("a has blocks b lacks")
	}
	if b.AnyMissingFrom(a) {
		t.Fatal("b has nothing a lacks")
	}
}

func TestAnyMissingFromEqualCounts(t *testing.T) {
	// Regression guard: the count pre-filter must not claim subset-ness
	// when counts are equal but contents differ.
	a, b := New(64), New(64)
	a.Add(1)
	b.Add(2)
	if !a.AnyMissingFrom(b) || !b.AnyMissingFrom(a) {
		t.Fatal("disjoint equal-size sets must be mutually interesting")
	}
}

func TestMaxMinFirstDiff(t *testing.T) {
	s := New(300)
	if s.Max() != -1 || s.Min() != -1 {
		t.Fatal("empty set Max/Min should be -1")
	}
	s.Add(77)
	s.Add(250)
	s.Add(5)
	if got := s.Max(); got != 250 {
		t.Fatalf("Max = %d, want 250", got)
	}
	if got := s.Min(); got != 5 {
		t.Fatalf("Min = %d, want 5", got)
	}
	o := New(300)
	o.Add(5)
	if got := s.FirstDiff(o); got != 77 {
		t.Fatalf("FirstDiff = %d, want 77", got)
	}
	o.Add(77)
	o.Add(250)
	if got := s.FirstDiff(o); got != -1 {
		t.Fatalf("FirstDiff of subset = %d, want -1", got)
	}
}

func TestMaxDiff(t *testing.T) {
	a, b := New(200), New(200)
	if a.MaxDiff(b) != -1 {
		t.Fatal("empty diff should be -1")
	}
	a.Add(5)
	a.Add(130)
	a.Add(199)
	if got := a.MaxDiff(b); got != 199 {
		t.Fatalf("MaxDiff = %d, want 199", got)
	}
	b.Add(199)
	if got := a.MaxDiff(b); got != 130 {
		t.Fatalf("MaxDiff = %d, want 130", got)
	}
	b.Add(130)
	b.Add(5)
	if got := a.MaxDiff(b); got != -1 {
		t.Fatalf("MaxDiff of subset = %d, want -1", got)
	}
}

func TestFill(t *testing.T) {
	s := New(70)
	s.Fill()
	if !s.Full() || s.Count() != 70 {
		t.Fatalf("Fill: count = %d", s.Count())
	}
	if s.Max() != 69 {
		t.Fatalf("Fill set stray bits: Max = %d", s.Max())
	}
	// Zero-capacity set: Fill is a no-op that stays consistent.
	z := New(0)
	z.Fill()
	if !z.Full() || z.Count() != 0 {
		t.Fatal("zero-capacity Fill inconsistent")
	}
}

func TestIterOrderAndEarlyStop(t *testing.T) {
	s := New(150)
	want := []int{0, 63, 64, 65, 149}
	for _, i := range want {
		s.Add(i)
	}
	if got := s.Slice(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	var visited []int
	s.Iter(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 2
	})
	if !reflect.DeepEqual(visited, []int{0, 63}) {
		t.Fatalf("early-stop Iter visited %v", visited)
	}
}

func TestIterDiff(t *testing.T) {
	a, b := New(128), New(128)
	for _, i := range []int{1, 2, 70, 127} {
		a.Add(i)
	}
	b.Add(2)
	b.Add(70)
	var got []int
	a.IterDiff(b, func(i int) bool {
		got = append(got, i)
		return true
	})
	if !reflect.DeepEqual(got, []int{1, 127}) {
		t.Fatalf("IterDiff = %v, want [1 127]", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Add(10)
	c := a.Clone()
	c.Add(20)
	if a.Has(20) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Has(10) {
		t.Fatal("clone lost original bit")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not Equal to original")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(65), New(65)
	if !a.Equal(b) {
		t.Fatal("two empty sets should be equal")
	}
	a.Add(64)
	if a.Equal(b) {
		t.Fatal("sets with different bits reported equal")
	}
	b.Add(64)
	if !a.Equal(b) {
		t.Fatal("identical sets reported unequal")
	}
	if a.Equal(New(64)) {
		t.Fatal("sets of different capacity reported equal")
	}
}

func TestClear(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i += 3 {
		s.Add(i)
	}
	s.Clear()
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("Clear left residue")
	}
	if s.Max() != -1 {
		t.Fatal("Clear left set bits")
	}
}

func TestString(t *testing.T) {
	s := New(4)
	s.Add(1)
	s.Add(3)
	if got := s.String(); got != "[0101]" {
		t.Fatalf("String = %q, want [0101]", got)
	}
}

// TestQuickCountMatchesSlice is a property test: Count always equals the
// number of distinct indices added.
func TestQuickCountMatchesSlice(t *testing.T) {
	r := xrand.New(1)
	f := func(raw []uint16) bool {
		s := New(1000)
		distinct := map[int]struct{}{}
		for _, v := range raw {
			i := int(v) % 1000
			s.Add(i)
			distinct[i] = struct{}{}
		}
		return s.Count() == len(distinct) && len(s.Slice()) == len(distinct)
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, _ *rand.Rand) {
			n := r.Intn(200)
			raw := make([]uint16, n)
			for i := range raw {
				raw[i] = uint16(r.Intn(1 << 16))
			}
			args[0] = reflect.ValueOf(raw)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDiffAlgebra checks |a \ b| + |a ∩ b| == |a| on random sets.
func TestQuickDiffAlgebra(t *testing.T) {
	r := xrand.New(2)
	f := func(aBits, bBits []uint16) bool {
		const n = 700
		a, b := New(n), New(n)
		for _, v := range aBits {
			a.Add(int(v) % n)
		}
		for _, v := range bBits {
			b.Add(int(v) % n)
		}
		inter := 0
		a.Iter(func(i int) bool {
			if b.Has(i) {
				inter++
			}
			return true
		})
		if a.DiffCount(b)+inter != a.Count() {
			return false
		}
		// AnyMissingFrom must agree with DiffCount > 0.
		return a.AnyMissingFrom(b) == (a.DiffCount(b) > 0)
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, _ *rand.Rand) {
			for k := range args {
				raw := make([]uint16, r.Intn(300))
				for i := range raw {
					raw[i] = uint16(r.Intn(1 << 16))
				}
				args[k] = reflect.ValueOf(raw)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWords(t *testing.T) {
	s := New(130)
	s.Add(0)
	s.Add(64)
	s.Add(129)
	w := s.Words()
	if len(w) != 3 {
		t.Fatalf("Words len = %d, want 3", len(w))
	}
	if w[0] != 1 || w[1] != 1 || w[2] != 2 {
		t.Fatalf("Words = %x", w)
	}
}

func TestAccumulateCounts(t *testing.T) {
	s := New(200) // spans four words, last partial
	for _, i := range []int{0, 63, 64, 100, 199} {
		s.Add(i)
	}
	counts := make([]int, 200)
	s.AccumulateCounts(counts, 1)
	s.AccumulateCounts(counts, 2)
	for i := range counts {
		want := 0
		if s.Has(i) {
			want = 3
		}
		if counts[i] != want {
			t.Fatalf("counts[%d] = %d, want %d", i, counts[i], want)
		}
	}
	// Subtracting the same set restores zero everywhere — the crash/
	// rejoin inverse the rarest-first scheduler relies on.
	s.AccumulateCounts(counts, -3)
	for i, c := range counts {
		if c != 0 {
			t.Fatalf("counts[%d] = %d after inverse, want 0", i, c)
		}
	}
}

func TestAccumulateCountsMatchesHas(t *testing.T) {
	r := xrand.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		s := New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				s.Add(i)
			}
		}
		counts := make([]int, n)
		s.AccumulateCounts(counts, 1)
		for i := 0; i < n; i++ {
			want := 0
			if s.Has(i) {
				want = 1
			}
			if counts[i] != want {
				t.Fatalf("n=%d: counts[%d] = %d, want %d", n, i, counts[i], want)
			}
		}
	}
}

func TestAccumulateCountsShortSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on short counts slice")
		}
	}()
	New(100).AccumulateCounts(make([]int, 50), 1)
}

func BenchmarkAccumulateCounts(b *testing.B) {
	s := New(2048)
	for i := 0; i < 2048; i += 2 {
		s.Add(i)
	}
	counts := make([]int, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AccumulateCounts(counts, 1)
	}
}

func BenchmarkAnyMissingFrom(b *testing.B) {
	a, o := New(1024), New(1024)
	for i := 0; i < 1024; i += 2 {
		a.Add(i)
		o.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.AnyMissingFrom(o)
	}
}

func BenchmarkIterDiff(b *testing.B) {
	a, o := New(1024), New(1024)
	for i := 0; i < 1024; i++ {
		a.Add(i)
		if i%3 == 0 {
			o.Add(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		a.IterDiff(o, func(int) bool { n++; return true })
	}
}

// TestIterateMissingOracle checks the word-level complement scan
// against a naive per-bit loop on random sets across capacities that
// exercise word boundaries and the final-word tail mask.
func TestIterateMissingOracle(t *testing.T) {
	r := xrand.New(7)
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200} {
		for trial := 0; trial < 20; trial++ {
			s := New(n)
			for i := 0; i < n; i++ {
				if r.Intn(3) != 0 {
					s.Add(i)
				}
			}
			var got, want []int
			s.IterateMissing(func(i int) bool {
				got = append(got, i)
				return true
			})
			for i := 0; i < n; i++ {
				if !s.Has(i) {
					want = append(want, i)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial=%d: IterateMissing=%v, oracle=%v", n, trial, got, want)
			}
			// Early-stop contract: returning false after the first hit
			// must visit exactly one bit.
			if len(want) > 0 {
				visits := 0
				s.IterateMissing(func(i int) bool {
					visits++
					if i != want[0] {
						t.Fatalf("n=%d: first missing bit %d, want %d", n, i, want[0])
					}
					return false
				})
				if visits != 1 {
					t.Fatalf("n=%d: early stop visited %d bits", n, visits)
				}
			}
			// A full set is missing nothing — the tail mask must keep the
			// phantom bits beyond Cap() invisible.
			s.Fill()
			s.IterateMissing(func(i int) bool {
				t.Fatalf("n=%d: full set reports missing bit %d", n, i)
				return false
			})
		}
	}
}

// TestFirstMissingInOracle checks the word-level witness search against
// a naive scan, plus its agreement with AnyMissingFrom.
func TestFirstMissingInOracle(t *testing.T) {
	r := xrand.New(8)
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200} {
		for trial := 0; trial < 20; trial++ {
			s, o := New(n), New(n)
			for i := 0; i < n; i++ {
				if r.Intn(2) == 0 {
					s.Add(i)
				}
				if r.Intn(2) == 0 {
					o.Add(i)
				}
			}
			want := -1
			for i := 0; i < n; i++ {
				if o.Has(i) && !s.Has(i) {
					want = i
					break
				}
			}
			if got := s.FirstMissingIn(o); got != want {
				t.Fatalf("n=%d trial=%d: FirstMissingIn=%d, oracle=%d", n, trial, got, want)
			}
			if (s.FirstMissingIn(o) >= 0) != o.AnyMissingFrom(s) {
				t.Fatalf("n=%d trial=%d: FirstMissingIn disagrees with AnyMissingFrom", n, trial)
			}
		}
	}
}

func TestSetWordsRoundTrip(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
	}
	restored := New(130)
	words := append([]uint64(nil), s.Words()...)
	if err := restored.SetWords(words); err != nil {
		t.Fatalf("SetWords: %v", err)
	}
	if !restored.Equal(s) {
		t.Fatal("restored set differs")
	}
	if restored.Count() != s.Count() {
		t.Fatalf("count %d, want %d", restored.Count(), s.Count())
	}
}

func TestSetWordsRejectsBadShape(t *testing.T) {
	s := New(130)
	if err := s.SetWords(make([]uint64, 2)); err == nil {
		t.Fatal("wrong word count accepted")
	}
	// Bit 130 and up live beyond capacity in the last word.
	bad := make([]uint64, 3)
	bad[2] = 1 << 2
	if err := s.SetWords(bad); err == nil {
		t.Fatal("out-of-capacity bit accepted")
	}
	// The failed calls must not have corrupted the set.
	if s.Count() != 0 {
		t.Fatalf("failed SetWords mutated count to %d", s.Count())
	}
}
