package shard

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"barterdist/internal/parallel"
	"barterdist/internal/xrand"
)

func TestMembersPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1013} {
		seen := make([]int, n)
		total := 0
		for sg := 0; sg < Slots; sg++ {
			prev := -1
			for _, v := range Members(n, sg) {
				if Of(int(v)) != sg {
					t.Fatalf("n=%d: member %d listed in lane %d but Of=%d", n, v, sg, Of(int(v)))
				}
				if int(v) <= prev {
					t.Fatalf("n=%d lane %d: members not ascending at %d", n, sg, v)
				}
				prev = int(v)
				seen[v]++
				total++
			}
		}
		if total != n {
			t.Fatalf("n=%d: lanes cover %d nodes", n, total)
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: node %d covered %d times", n, v, c)
			}
		}
	}
}

func TestStreamSeedsDistinct(t *testing.T) {
	base := uint64(12345)
	seen := map[uint64]bool{base: true}
	for sg := 0; sg < Slots; sg++ {
		s := StreamSeed(base, sg)
		if seen[s] {
			t.Fatalf("lane %d seed %#x collides", sg, s)
		}
		seen[s] = true
	}
}

func TestWorkersClamp(t *testing.T) {
	for in, want := range map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 8: 8, 9: 8, 64: 8} {
		if got := Workers(in); got != want {
			t.Fatalf("Workers(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRunVisitsEveryLaneOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		var hits [Slots]atomic.Int32
		if err := Run(w, func(sg int) error {
			hits[sg].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for sg := range hits {
			if hits[sg].Load() != 1 {
				t.Fatalf("w=%d: lane %d resolved %d times", w, sg, hits[sg].Load())
			}
		}
	}
}

func TestRunWrapsPanics(t *testing.T) {
	err := Run(2, func(sg int) error {
		if sg == 5 {
			panic("lane blew up")
		}
		return nil
	})
	var pe *parallel.PanicError
	if err == nil {
		t.Fatal("panic was swallowed")
	}
	if !errors.As(err, &pe) {
		t.Fatalf("got %T (%v), want *parallel.PanicError", err, err)
	}
}

// TestShuffle32MatchesIntShuffle pins Shuffle32 to the identical draw
// sequence as xrand.Shuffle on the same length, which is what lets the
// sharded schedulers document their per-lane orders as "the canonical
// Fisher–Yates of the member list".
func TestShuffle32MatchesIntShuffle(t *testing.T) {
	const n = 257
	a := xrand.New(99)
	b := xrand.New(99)
	want := make([]int, n)
	got := make([]int32, n)
	for i := range want {
		want[i] = i * 3
		got[i] = int32(i * 3)
	}
	a.Shuffle(want)
	Shuffle32(b, got)
	for i := range want {
		if int(got[i]) != want[i] {
			t.Fatalf("permutation diverges at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestStreamsOwnTheirLines pins that Streams hands out the same draws as
// bare xrand.New streams and that no two lane states share a 128-byte
// block, so lanes drawing on different workers never write one line.
func TestStreamsOwnTheirLines(t *testing.T) {
	if size := reflect.TypeOf(laneStream{}).Size(); size != 128 {
		t.Fatalf("laneStream is %d bytes, want 128", size)
	}
	const base = 46000
	st := Streams(base)
	blocks := map[uintptr]int{}
	for sg, r := range st {
		want := xrand.New(StreamSeed(base, sg))
		for i := 0; i < 8; i++ {
			if got, w := r.Uint64(), want.Uint64(); got != w {
				t.Fatalf("lane %d draw %d: %#x, want %#x", sg, i, got, w)
			}
		}
		block := reflect.ValueOf(r).Pointer() / 128
		if other, ok := blocks[block]; ok {
			t.Fatalf("lanes %d and %d share a 128-byte block", other, sg)
		}
		blocks[block] = sg
	}
}
