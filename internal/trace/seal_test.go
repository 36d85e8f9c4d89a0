package trace_test

import (
	"testing"

	"barterdist/internal/randomized"
	"barterdist/internal/schedule"
	"barterdist/internal/simulate"
	"barterdist/internal/trace"
)

// TestSealedFramesMatchReference runs the two schedule families whose
// columns the frame encoder is tuned for, the binomial pipeline's
// hypercube sweeps and the randomized scheduler's lane-striped
// pairings, and requires every frame they seal to equal the reference
// encoder's bytes.
func TestSealedFramesMatchReference(t *testing.T) {
	pipeline, err := schedule.NewBinomialPipeline(1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := randomized.New(randomized.Options{Seed: 21, DownloadCap: 1, ShardWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cfg   simulate.Config
		sched simulate.Scheduler
	}{
		{"binomial-pipeline", simulate.Config{Nodes: 1024, Blocks: 256, DownloadCap: 1, RecordTrace: true}, pipeline},
		{"randomized-sharded", simulate.Config{Nodes: 1500, Blocks: 128, DownloadCap: 1, RecordTrace: true}, sharded},
	} {
		res, err := simulate.Run(tc.cfg, tc.sched)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if frames := trace.CheckSealedFrames(t, res.Trace); frames < 2 {
			t.Fatalf("%s: %d sealed frames, want at least 2", tc.name, frames)
		}
	}
}
