package experiment

import (
	"errors"
	"fmt"

	"barterdist/internal/analysis"
	"barterdist/internal/core"
	"barterdist/internal/parallel"
)

// Options configures how a generator executes. The zero value runs with
// no progress logging and one worker per CPU.
//
// Determinism contract: every generator produces byte-identical CSV and
// renderings for any Workers value >= 1. Replicate seeds are pre-derived
// from the per-point base seed (seed + rep*parallel.SeedStride), every
// simulation owns its RNG stream, and all aggregation happens
// sequentially in submission order — worker scheduling can reorder only
// the Progress lines, never the data.
type Options struct {
	// Progress receives human-readable status lines; nil disables
	// logging. Generators serialize calls through Progress.Serialized,
	// so the callback itself does not need to be safe for concurrent
	// use. Line order may vary with worker scheduling.
	Progress Progress
	// Workers caps the simulation worker pool. Zero selects
	// runtime.GOMAXPROCS(0); negative values are rejected by Validate.
	Workers int
	// Checkpoint names a JSONL cell store recording every completed
	// (spec, replicate) simulation as it finishes. Rerunning an
	// interrupted generator against the same store recomputes only the
	// missing cells and reproduces the exact uncheckpointed output:
	// cached cells carry the same outcome the simulation would, because
	// each cell's seed is pre-derived from its identity. Every
	// replicated generator honors it — the figures and Table B through
	// runPoints, Tables D/E/F/G and the scale capstone directly. TableA
	// and TableC are single deterministic runs per cell (milliseconds
	// at any scale), so they recompute rather than cache. Empty
	// disables checkpointing.
	Checkpoint string
}

// Validate checks the options without mutating them. Workers must be
// non-negative: zero means "one worker per CPU", and an explicit count
// must be at least one — a negative count is almost always a sign error
// in the caller, not a request for auto-sizing.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("experiment: Workers = %d; must be >= 0 (0 selects GOMAXPROCS)", o.Workers)
	}
	return nil
}

func (o Options) workers() int { return parallel.Workers(o.Workers) }

// runSpec is one x-point of a sweep: a config template replicated reps
// times, with replicate r seeded seed + r*parallel.SeedStride.
type runSpec struct {
	tag  string // progress/error label, logged when the point starts
	cfg  core.Config
	reps int
	seed uint64
}

// repOutcome is one replicate's result. Stalls (core.ErrStalled) count
// as runs pinned at the tick budget, exactly as the paper plots "off
// the charts" points. Fields are exported because the checkpoint cell
// store caches outcomes as JSON (see cellCached).
type repOutcome struct {
	Ticks   float64 `json:"ticks"`
	Stalled bool    `json:"stalled,omitempty"`
}

// runPoints fans every (spec, replicate) pair out over the worker pool
// and aggregates each spec's completion times into a Point, in spec
// order. See Options for the determinism contract; the X coordinate is
// left zero for the caller to fill in.
func runPoints(opt Options, specs []runSpec) ([]Point, error) {
	prog := opt.Progress.Serialized()
	store, err := opt.openStore()
	if err != nil {
		return nil, err
	}
	defer store.close()
	total := 0
	for _, sp := range specs {
		total += sp.reps
	}
	specOf := make([]int32, 0, total) // flat job index -> spec index
	repOf := make([]int32, 0, total)  // flat job index -> replicate
	for si, sp := range specs {
		for r := 0; r < sp.reps; r++ {
			specOf = append(specOf, int32(si))
			repOf = append(repOf, int32(r))
		}
	}
	outcomes, err := parallel.Map(opt.workers(), total, func(j int) (repOutcome, error) {
		sp := &specs[specOf[j]]
		rep := int(repOf[j])
		if rep == 0 {
			prog.log("%s", sp.tag)
		}
		cfg := sp.cfg
		cfg.Seed = sp.seed + uint64(rep)*parallel.SeedStride
		return cellCached(store, sp.tag, sp.seed, rep, func() (repOutcome, error) {
			res, err := core.Run(cfg)
			switch {
			case err == nil:
				return repOutcome{Ticks: float64(res.CompletionTime)}, nil
			case errors.Is(err, core.ErrStalled):
				// Stalls are data (points pinned at the tick budget), so they
				// are cached; real errors are not — a resumed run retries them.
				return repOutcome{Ticks: float64(cfg.MaxTicks), Stalled: true}, nil
			default:
				return repOutcome{}, fmt.Errorf("%s: %w", sp.tag, err)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(specs))
	j := 0
	for si := range specs {
		sp := &specs[si]
		times := make([]float64, 0, sp.reps)
		stalled := 0
		for r := 0; r < sp.reps; r++ {
			o := outcomes[j]
			j++
			times = append(times, o.Ticks)
			if o.Stalled {
				stalled++
			}
		}
		sum, err := analysis.Summarize(times)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.tag, err)
		}
		points[si] = Point{Mean: sum.Mean, CI95: sum.CI95, Reps: sp.reps, Stalled: stalled}
	}
	return points, nil
}
