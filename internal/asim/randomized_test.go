package asim

import (
	"testing"

	"barterdist/internal/arrival"
	"barterdist/internal/fault"
)

// freqChecked wraps the async rarest-first protocol and, after every
// population change, compares its incrementally maintained replication
// counts with a from-scratch recount over the present nodes.
type freqChecked struct {
	*AsyncRandomized
	t      *testing.T
	checks int
}

func (f *freqChecked) check(s *State) {
	f.t.Helper()
	f.checks++
	for b := range f.counts.r.Count {
		want := 0
		for v := 0; v < s.N(); v++ {
			if s.Alive(v) && s.Has(v, b) {
				want++
			}
		}
		if f.counts.r.Count[b] != want {
			f.t.Fatalf("t=%v: block %d counted %d times, present holders %d", s.Now(), b, f.counts.r.Count[b], want)
		}
	}
}

func (f *freqChecked) OnCrash(v int, s *State) { f.AsyncRandomized.OnCrash(v, s); f.check(s) }

func (f *freqChecked) OnRejoin(v int, wiped bool, s *State) {
	f.AsyncRandomized.OnRejoin(v, wiped, s)
	f.check(s)
}

// TestAsyncRarityCountsIncremental: crashes, kept-cache and wiped
// rejoins, and open-system arrivals and departures all adjust the
// rarity counts in place, and the counts always equal a full recount.
func TestAsyncRarityCountsIncremental(t *testing.T) {
	for _, wipe := range []bool{false, true} {
		plan, err := fault.NewPlan(fault.Options{Seed: 5, CrashRate: 0.2, MaxCrashes: 12,
			RejoinDelay: 2, RejoinLosesBlocks: wipe, LossRate: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		p := &freqChecked{AsyncRandomized: NewAsyncRandomized(nil, true, 1, 3), t: t}
		if _, err := Run(Config{Nodes: 24, Blocks: 16, DownloadPorts: 1, Fault: plan}, p); err != nil {
			t.Fatal(err)
		}
		if p.checks == 0 {
			t.Fatalf("wipe=%v: no crash or rejoin exercised the counts", wipe)
		}
	}
	plan, err := arrival.NewPlan(arrival.Options{Seed: 7, Rate: 0.8, EarlyExit: 0.2, Linger: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &freqChecked{AsyncRandomized: NewAsyncRandomized(nil, true, 1, 3), t: t}
	if _, err := Run(Config{Nodes: 48, Blocks: 8, DownloadPorts: 1, Arrivals: plan}, p); err != nil {
		t.Fatal(err)
	}
	if p.checks <= 47 {
		t.Fatalf("open run exercised the counts %d times, want every arrival and some departures", p.checks)
	}
}
