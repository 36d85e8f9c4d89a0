package randomized

import (
	"fmt"
	"slices"
	"testing"

	"barterdist/internal/arrival"
	"barterdist/internal/fault"
	"barterdist/internal/simulate"
)

// TestAvailWordsMatchBlocks pins the rejection sampler's block-word
// snapshot to ground truth: at the end of every tick, row i of
// availWords must equal the block words of avail[i].
// Credit, open-system and churn runs at k = 64 (one word) and k = 96
// (two words) cover the rebuild in beginTick, the row moves in
// removeAvail, arrivals, departures, crashes and wiped rejoins.
func TestAvailWordsMatchBlocks(t *testing.T) {
	for _, k := range []int{64, 96} {
		for _, shape := range []string{"credit", "open", "churn"} {
			t.Run(fmt.Sprintf("%s/k=%d", shape, k), func(t *testing.T) {
				cfg := simulate.Config{Nodes: 160, Blocks: k, DownloadCap: 1}
				opts := Options{Seed: 31, DownloadCap: 1, ShardWorkers: 3}
				switch shape {
				case "credit":
					opts.CreditLimit = 1
				case "open":
					opts.Policy = RarestFirst
					plan, err := arrival.NewPlan(arrival.Options{Seed: 4, Rate: 12, EarlyExit: 0.1, Linger: 2})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Arrivals = plan
				case "churn":
					opts.CreditLimit = 2
					plan, err := fault.NewPlan(fault.Options{
						Seed: 12, CrashRate: 0.1, MaxCrashes: 8, RejoinDelay: 2,
						RejoinLosesBlocks: true, LossRate: 0.05,
					})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Fault = plan
				}
				checkAvailWords(t, cfg, opts)
			})
		}
	}
}

// checkAvailWords runs one simulation through a probe that compares
// the snapshot with the block sets after each of the scheduler's ticks.
// Rows move only in removeAvail, and block sets change only when the
// engine applies the tick, so one check after Tick sees the rebuild
// and every row move of the tick.
func checkAvailWords(t *testing.T, cfg simulate.Config, opts Options) {
	t.Helper()
	sched, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	checks, removed := 0, 0
	probe := simulate.SchedulerFunc(func(tick int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
		dst, err := sched.Tick(tick, st, dst)
		if err != nil {
			return nil, err
		}
		s := sched
		if len(s.availWords) != len(s.avail)*s.words {
			t.Fatalf("tick %d: %d snapshot words for %d candidates of %d words",
				tick, len(s.availWords), len(s.avail), s.words)
		}
		for i, v := range s.avail {
			row := s.availWords[i*s.words : (i+1)*s.words]
			if want := st.Blocks(int(v)).Words(); !slices.Equal(row, want) {
				t.Fatalf("tick %d: row %d (node %d) = %x, block set %x", tick, i, v, row, want)
			}
		}
		checks++
		removed += s.removedInTick
		return dst, nil
	})
	if _, err := simulate.Run(cfg, probe); err != nil {
		t.Fatal(err)
	}
	if checks == 0 || removed == 0 {
		t.Fatalf("run made %d checks and saturated %d receivers; the test needs both", checks, removed)
	}
}
