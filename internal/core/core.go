// Package core ties the substrates together behind a single entry point:
// describe a content-distribution scenario as a Config, call Run, and get
// back completion-time metrics, optimality gaps, and optional mechanism
// audits.
//
// It is the implementation behind the repository's public barterdist
// facade and is what the example programs, CLIs, and benchmark harness
// drive.
package core

import (
	"errors"
	"fmt"

	"barterdist/internal/adversary"
	"barterdist/internal/analysis"
	"barterdist/internal/arrival"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/graph"
	"barterdist/internal/mechanism"
	"barterdist/internal/randomized"
	"barterdist/internal/schedule"
	"barterdist/internal/simulate"
	"barterdist/internal/trace"
	"barterdist/internal/xrand"
)

// Algorithm names a content-distribution algorithm from the paper.
type Algorithm string

// The supported algorithms.
const (
	// AlgoPipeline is the chain of Section 2.2.1.
	AlgoPipeline Algorithm = "pipeline"
	// AlgoMulticastTree is the m-ary tree of Section 2.2.2 (set TreeArity).
	AlgoMulticastTree Algorithm = "multicast-tree"
	// AlgoBinomialTree is the blockwise broadcast of Section 2.2.3.
	AlgoBinomialTree Algorithm = "binomial-tree"
	// AlgoBinomialPipeline is the paper's optimal algorithm (Section 2.3).
	AlgoBinomialPipeline Algorithm = "binomial-pipeline"
	// AlgoMultiServer is the m-virtual-server variant of Section 2.3.4
	// (set VirtualServers).
	AlgoMultiServer Algorithm = "multi-server"
	// AlgoRiffle is the strict-barter Riffle Pipeline of Section 3.1.3.
	AlgoRiffle Algorithm = "riffle"
	// AlgoRandomized is the randomized algorithm of Sections 2.4/3.2.3
	// (configure Overlay, Policy, CreditLimit).
	AlgoRandomized Algorithm = "randomized"
	// AlgoTriangular is the randomized algorithm under triangular barter
	// (Section 3.3, the paper's future work): blocked transfers settle
	// around simultaneous cycles of length <= CycleLimit.
	AlgoTriangular Algorithm = "randomized-triangular"
)

// Overlay names an overlay topology for the randomized algorithm.
type Overlay string

// The supported overlays.
const (
	// OverlayComplete is the complete graph (Figures 3 and 4).
	OverlayComplete Overlay = "complete"
	// OverlayRandomRegular is a random Degree-regular graph (Figures 5-7).
	OverlayRandomRegular Overlay = "random-regular"
	// OverlayHypercube is the paired hypercube of Section 2.3.3.
	OverlayHypercube Overlay = "hypercube"
	// OverlayChain is the path graph.
	OverlayChain Overlay = "chain"
)

// Mechanism names a barter mechanism for trace verification.
type Mechanism string

// The verifiable mechanisms.
const (
	// MechanismNone skips verification.
	MechanismNone Mechanism = ""
	// MechanismStrict verifies Section 3.1 strict barter.
	MechanismStrict Mechanism = "strict"
	// MechanismCredit verifies Section 3.2 credit-limited barter with
	// limit CreditLimit (default 1).
	MechanismCredit Mechanism = "credit"
	// MechanismTriangular verifies Section 3.3 triangular barter with
	// limit CreditLimit (default 1).
	MechanismTriangular Mechanism = "triangular"
)

// Config describes one dissemination run.
type Config struct {
	// Nodes is the total node count (server + clients), >= 2.
	Nodes int
	// Blocks is the file size in blocks, >= 1.
	Blocks int
	// Algorithm selects the schedule; default AlgoBinomialPipeline.
	Algorithm Algorithm

	// TreeArity is the multicast tree fan-out (default 2).
	TreeArity int
	// VirtualServers is the multi-server split m (default 2); the engine
	// gives the server m upload slots per tick.
	VirtualServers int
	// RiffleNoOverlap selects the riffle pipeline that shifts each
	// block group N + 1 ticks, so D = U suffices at the cost of k/N
	// extra ticks. The default (false) is the overlapped riffle, which
	// needs D >= 2U; with DownloadCap 0, Run sets D to 2 for the
	// overlapped riffle and to 1 for this one.
	RiffleNoOverlap bool

	// Overlay selects the randomized algorithm's overlay; default
	// OverlayComplete.
	Overlay Overlay
	// Degree is the random-regular overlay degree (required for
	// OverlayRandomRegular).
	Degree int
	// Policy is the block-selection policy (default randomized.Random).
	Policy randomized.Policy
	// CreditLimit > 0 runs the randomized algorithm under credit-limited
	// barter; it is also the limit used by MechanismCredit verification.
	CreditLimit int
	// CycleLimit is the longest settlement cycle for AlgoTriangular
	// (default 3; 2 degenerates to credit-limited barter).
	CycleLimit int
	// RewireEvery > 0 rebuilds the randomized algorithm's random regular
	// overlay every RewireEvery ticks (the paper's "change neighbors
	// periodically" variant).
	RewireEvery int

	// ShardWorkers is how many OS workers resolve the randomized-family
	// schedulers' intra-tick pairing lanes concurrently (see
	// internal/shard). 0 and 1 both mean inline sequential resolution.
	// Results are byte-identical for every value; this knob only trades
	// wall-clock for cores.
	ShardWorkers int

	// AuditWorkers is ignored: the mechanism verifiers and the
	// minimal-credit scan are one sequential walk each.
	//
	// Deprecated: the field remains only so existing callers compile.
	AuditWorkers int

	// DownloadCap is the per-node download capacity D. 0 lets Run choose
	// the algorithm's natural requirement (2 for the overlapped riffle,
	// 1 for the randomized algorithm, unbounded for deterministic
	// schedules); DownloadUnlimited removes the bound.
	DownloadCap int
	// Seed drives every random choice (overlay construction and the
	// randomized algorithm).
	Seed uint64
	// RecordTrace retains the full transfer trace (needed for Verify).
	RecordTrace bool
	// Verify audits the recorded trace against a mechanism after the run.
	Verify Mechanism
	// MaxTicks bounds the simulation (0 = generous default). Runs that
	// exceed it — e.g. credit-limited runs on under-provisioned overlays
	// (Figure 6's "off the charts" region) — return ErrStalled.
	MaxTicks int

	// Fault, when non-nil, injects deterministic adversity (crashes,
	// rejoins, transfer loss) into the run; see fault.Options. The
	// deterministic pipeline schedules are automatically wrapped in
	// schedule.SelfHeal so they survive churn; the randomized schedulers
	// are natively fault-aware. A nil Fault reproduces the fault-free
	// engine byte for byte.
	Fault *fault.Options

	// Arrivals, when non-nil, runs an open-system swarm instead of the
	// paper's closed one: clients enter by a seeded Poisson process (rate
	// Arrivals.Rate per tick) until the Nodes-1 client pool is exhausted,
	// depart per Arrivals' policies (at completion, early selfish exit,
	// lingering seeds), and a stability watchdog grades the run Drained
	// or Unstable instead of erroring on divergence; see arrival.Options.
	// Only the swarm algorithms (AlgoRandomized, AlgoTriangular) on the
	// complete overlay support open mode, and it composes with
	// Checkpoint but not with Fault or Adversary.
	Arrivals *arrival.Options

	// Adversary, when non-nil, assigns misbehaving strategies to a
	// deterministic subset of clients — free-riders, throttlers,
	// false-advertisers, corrupters, and defectors; see
	// adversary.Options. Completion then means every HONEST client
	// completed, the randomized schedulers quarantine detected
	// misbehavers, and Verify audits only the transfers the adversary
	// actually released. Composes with Fault. A nil Adversary
	// reproduces the compliant engine byte for byte.
	Adversary *adversary.Options

	// Checkpoint enables periodic crash-safe snapshots: every
	// Checkpoint.Every ticks the engine state is written atomically to
	// Checkpoint.Path. An interrupted run continues via Resume with a
	// byte-identical remainder. Supported by the randomized schedulers
	// and the pure precomputed schedules; SelfHeal-wrapped runs (Fault
	// with a deterministic algorithm) refuse to checkpoint.
	Checkpoint *checkpoint.Policy
}

// Result reports a completed run.
type Result struct {
	// CompletionTime is the tick at which the last client finished.
	CompletionTime int
	// OptimalTime is Theorem 1's cooperative lower bound for (n, k).
	OptimalTime int
	// StrictBarterBound is Theorem 2's strict-barter lower bound.
	StrictBarterBound int
	// Efficiency is useful transfers over total upload slots used.
	Efficiency float64
	// MinimalCreditLimit is the smallest s the recorded trace would have
	// satisfied (0 unless RecordTrace).
	MinimalCreditLimit int
	// Overlay describes the overlay used, if any.
	Overlay string
	// Sim carries the raw engine result (per-client completion times,
	// per-tick upload counts, trace when recorded).
	Sim *simulate.Result
	// SimConfig is the exact engine configuration the run used (after
	// Run's defaulting), so callers can replay it — e.g. through
	// simulate.RunAudit. Its Fault field is nil: the consumed plan is
	// not reusable, and auditing replays from Sim.FaultLog instead.
	SimConfig simulate.Config
	// Open carries the open-system verdict and robustness
	// instrumentation when Config.Arrivals was set (nil otherwise).
	Open *arrival.OpenResult
}

// DownloadUnlimited as Config.DownloadCap removes the download bound.
const DownloadUnlimited = -1

// ErrStalled wraps simulate.ErrMaxTicks for callers that treat
// non-completion as data (Figure 6 treats stalls as off-the-chart
// points).
var ErrStalled = errors.New("core: run did not complete within MaxTicks")

// Validate checks the raw configuration without mutating it. Zero
// fields with documented defaults (Algorithm, DownloadCap, …) are
// accepted; Run applies the defaults after validation.
func (c *Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("core: Nodes = %d, need >= 2", c.Nodes)
	}
	if c.Blocks < 1 {
		return fmt.Errorf("core: Blocks = %d, need >= 1", c.Blocks)
	}
	if c.DownloadCap < 0 && c.DownloadCap != DownloadUnlimited {
		return fmt.Errorf("core: DownloadCap = %d is invalid", c.DownloadCap)
	}
	if c.ShardWorkers < 0 {
		return fmt.Errorf("core: ShardWorkers = %d is invalid", c.ShardWorkers)
	}
	if err := c.Checkpoint.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.Arrivals != nil {
		if err := c.Arrivals.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		switch c.Algorithm {
		case AlgoRandomized, AlgoTriangular:
		default:
			return fmt.Errorf("core: open-system Arrivals requires AlgoRandomized or AlgoTriangular (got %q)", c.Algorithm)
		}
		if c.Overlay != OverlayComplete && c.Overlay != "" {
			return fmt.Errorf("core: open-system Arrivals requires the complete overlay (got %q): fixed overlays have no edges for peers that did not exist at build time", c.Overlay)
		}
		if c.Fault != nil {
			return errors.New("core: Arrivals and Fault are mutually exclusive — open-system churn is the arrival plan's job")
		}
		if c.Adversary != nil {
			return errors.New("core: Arrivals does not compose with Adversary yet")
		}
	}
	return nil
}

// Run executes one configured dissemination and returns its metrics.
//
//lint:novalidate audited forwarder — prepare calls cfg.Validate
func Run(cfg Config) (*Result, error) {
	simCfg, sched, overlayName, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	simRes, err := simulate.Run(simCfg, sched)
	if err != nil {
		if errors.Is(err, simulate.ErrMaxTicks) {
			return nil, fmt.Errorf("%w: %v", ErrStalled, err)
		}
		return nil, err
	}
	return buildResult(cfg, simCfg, overlayName, simRes)
}

// Resume continues a checkpointed run from its snapshot file. cfg must
// be the exact configuration of the interrupted Run call — the scenario
// (scheduler, overlay, fault and adversary plans) is rebuilt from it,
// then rewound to the snapshot's tick boundary. By the determinism
// contract the combined result is byte-identical to an uninterrupted
// run's.
//
//lint:novalidate audited forwarder — prepare calls cfg.Validate
func Resume(cfg Config, snap *checkpoint.Snapshot) (*Result, error) {
	simCfg, sched, overlayName, err := prepare(&cfg)
	if err != nil {
		return nil, err
	}
	simRes, err := simulate.Resume(simCfg, sched, snap)
	if err != nil {
		if errors.Is(err, simulate.ErrMaxTicks) {
			return nil, fmt.Errorf("%w: %v", ErrStalled, err)
		}
		return nil, err
	}
	return buildResult(cfg, simCfg, overlayName, simRes)
}

// prepare validates cfg, applies defaults, and builds the engine
// configuration, scheduler, and single-use fault/adversary plans for
// one run. Run and Resume share it so a resumed scenario is constructed
// exactly like the original.
func prepare(cfg *Config) (simulate.Config, simulate.Scheduler, string, error) {
	if err := cfg.Validate(); err != nil {
		return simulate.Config{}, nil, "", err
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = AlgoBinomialPipeline
	}
	simCfg := simulate.Config{
		Nodes:       cfg.Nodes,
		Blocks:      cfg.Blocks,
		DownloadCap: cfg.DownloadCap,
		MaxTicks:    cfg.MaxTicks,
		RecordTrace: cfg.RecordTrace || cfg.Verify != MechanismNone,
		Checkpoint:  cfg.Checkpoint,
	}
	if cfg.DownloadCap == DownloadUnlimited {
		simCfg.DownloadCap = simulate.Unlimited
	}

	sched, overlayName, err := buildScheduler(cfg, &simCfg)
	if err != nil {
		return simulate.Config{}, nil, "", err
	}
	if cfg.Fault != nil {
		plan, err := fault.NewPlan(*cfg.Fault)
		if err != nil {
			return simulate.Config{}, nil, "", err
		}
		simCfg.Fault = plan
		switch cfg.Algorithm {
		case AlgoRandomized, AlgoTriangular:
			// Natively fault-aware: they re-sample around dead peers.
		default:
			// Precomputed pipeline schedules desynchronize under churn;
			// SelfHeal re-embeds the survivors (and stays out of the way
			// on fault-free ticks).
			sched = schedule.NewSelfHeal(sched)
		}
	}

	if cfg.Adversary != nil {
		plan, err := adversary.NewPlan(cfg.Nodes, *cfg.Adversary)
		if err != nil {
			return simulate.Config{}, nil, "", err
		}
		simCfg.Adversary = plan
	}
	if cfg.Arrivals != nil {
		plan, err := arrival.NewPlan(*cfg.Arrivals)
		if err != nil {
			return simulate.Config{}, nil, "", fmt.Errorf("core: %w", err)
		}
		simCfg.Arrivals = plan
	}
	return simCfg, sched, overlayName, nil
}

// buildResult assembles the public result from a finished engine run.
func buildResult(cfg Config, simCfg simulate.Config, overlayName string, simRes *simulate.Result) (*Result, error) {
	res := &Result{
		CompletionTime:    simRes.CompletionTime,
		OptimalTime:       analysis.CooperativeLowerBound(cfg.Nodes, cfg.Blocks),
		StrictBarterBound: analysis.StrictBarterLowerBound(cfg.Nodes, cfg.Blocks),
		Efficiency:        simRes.Efficiency(cfg.Nodes),
		Overlay:           overlayName,
		Sim:               simRes,
		SimConfig:         simCfg,
		Open:              simRes.Open,
	}
	res.SimConfig.Fault = nil      // the consumed plan must not leak into replays
	res.SimConfig.Adversary = nil  // ditto: audits replay from Sim.Strategies
	res.SimConfig.Checkpoint = nil // replays should not overwrite the live checkpoint
	res.SimConfig.Arrivals = nil   // ditto: the consumed arrival plan is single-use
	if l := simRes.Trace; l != nil && l.Len() > 0 {
		if cfg.Verify == MechanismCredit && !l.Kinded() {
			// An unkinded log's released view is its full view, so one
			// walk gives both the minimal credit limit and the verdict.
			var err error
			res.MinimalCreditLimit, err = mechanism.VerifyCreditLimitedMinimal(l.Cursor(), creditLimit(cfg))
			return res, err
		}
		res.MinimalCreditLimit = mechanism.MinimalCreditLimit(l.Cursor())
	}
	if err := verify(cfg, simRes); err != nil {
		return res, err
	}
	return res, nil
}

func buildScheduler(cfg *Config, simCfg *simulate.Config) (simulate.Scheduler, string, error) {
	switch cfg.Algorithm {
	case AlgoPipeline:
		return schedule.Pipeline(), "chain", nil
	case AlgoMulticastTree:
		arity := cfg.TreeArity
		if arity == 0 {
			arity = 2
		}
		s, err := schedule.MulticastTree(cfg.Nodes, cfg.Blocks, arity)
		return s, fmt.Sprintf("kary(m=%d)", arity), err
	case AlgoBinomialTree:
		s, err := schedule.BinomialTree(cfg.Nodes, cfg.Blocks)
		return s, "binomial-tree", err
	case AlgoBinomialPipeline:
		s, err := schedule.NewBinomialPipeline(cfg.Nodes, cfg.Blocks)
		return s, "hypercube", err
	case AlgoMultiServer:
		m := cfg.VirtualServers
		if m == 0 {
			m = 2
		}
		simCfg.ServerUploadCap = m
		s, err := schedule.MultiServer(cfg.Nodes, cfg.Blocks, m)
		return s, fmt.Sprintf("multi-hypercube(m=%d)", m), err
	case AlgoRiffle:
		overlap := !cfg.RiffleNoOverlap
		if cfg.DownloadCap == 0 {
			if overlap {
				simCfg.DownloadCap = 2
			} else {
				simCfg.DownloadCap = 1
			}
		}
		s, err := schedule.NewRifflePipeline(cfg.Nodes, cfg.Blocks, overlap)
		return s, "riffle", err
	case AlgoRandomized:
		if cfg.DownloadCap == 0 {
			simCfg.DownloadCap = 1
		}
		g, name, err := buildOverlay(cfg)
		if err != nil {
			return nil, "", err
		}
		s, err := randomized.New(randomized.Options{
			Graph:        g,
			Policy:       cfg.Policy,
			CreditLimit:  cfg.CreditLimit,
			DownloadCap:  simCfg.DownloadCap,
			Seed:         cfg.Seed,
			RewireEvery:  cfg.RewireEvery,
			ShardWorkers: cfg.ShardWorkers,
		})
		return s, name, err
	case AlgoTriangular:
		if cfg.DownloadCap == 0 {
			simCfg.DownloadCap = 1
		}
		g, name, err := buildOverlay(cfg)
		if err != nil {
			return nil, "", err
		}
		if g == nil {
			// The triangular scheduler needs explicit adjacency.
			g = graph.Complete(cfg.Nodes)
		}
		s, err := randomized.NewTriangular(randomized.TriangularOptions{
			Graph:        g,
			Policy:       cfg.Policy,
			CreditLimit:  cfg.CreditLimit,
			CycleLimit:   cfg.CycleLimit,
			DownloadCap:  simCfg.DownloadCap,
			Seed:         cfg.Seed,
			ShardWorkers: cfg.ShardWorkers,
		})
		return s, name, err
	default:
		return nil, "", fmt.Errorf("core: unknown algorithm %q", cfg.Algorithm)
	}
}

func buildOverlay(cfg *Config) (*graph.Graph, string, error) {
	switch cfg.Overlay {
	case OverlayComplete, "":
		// nil selects the scheduler's complete-graph fast path.
		return nil, "complete", nil
	case OverlayRandomRegular:
		if cfg.Degree < 1 {
			return nil, "", fmt.Errorf("core: random-regular overlay requires Degree >= 1 (got %d)", cfg.Degree)
		}
		rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
		g, err := graph.RandomRegular(cfg.Nodes, cfg.Degree, rng)
		if err != nil {
			return nil, "", fmt.Errorf("core: %w", err)
		}
		if !g.Connected() {
			// A disconnected overlay can never complete; retry a few
			// seeds before giving up.
			for attempt := 0; attempt < 20 && !g.Connected(); attempt++ {
				if g, err = graph.RandomRegular(cfg.Nodes, cfg.Degree, rng); err != nil {
					return nil, "", fmt.Errorf("core: %w", err)
				}
			}
			if !g.Connected() {
				return nil, "", fmt.Errorf("core: could not build a connected %d-regular overlay on %d nodes", cfg.Degree, cfg.Nodes)
			}
		}
		return g, g.Name(), nil
	case OverlayHypercube:
		g, _, err := graph.PairedHypercube(cfg.Nodes)
		if err != nil {
			return nil, "", fmt.Errorf("core: %w", err)
		}
		return g, g.Name(), nil
	case OverlayChain:
		return graph.Chain(cfg.Nodes), "chain", nil
	default:
		return nil, "", fmt.Errorf("core: unknown overlay %q", cfg.Overlay)
	}
}

// creditLimit is the limit the mechanism verifiers check: the
// configured one, or 1 when none is set.
func creditLimit(cfg Config) int {
	if cfg.CreditLimit == 0 {
		return 1
	}
	return cfg.CreditLimit
}

// verify audits the recorded trace against the configured mechanism.
// The verifiers see the *released* view of the columnar trace: for
// compliant runs that is the scheduled trace unchanged — fault drops
// stay in (a block lost in the network still consumed the sender's
// credit, matching the live ledger) — while for adversarial runs,
// transfers the sender's own strategy refused, stalled, or garbled
// are skipped by the cursor: they were never released (or were clawed
// back by the schedulers' ledgers), so charging them would read the
// adversary's sabotage as the mechanism's failure.
func verify(cfg Config, simRes *simulate.Result) error {
	limit := creditLimit(cfg)
	if cfg.Verify == MechanismNone {
		return nil
	}
	if simRes.Trace == nil {
		simRes.Trace = trace.New(false) // nothing recorded: vacuously compliant
	}
	switch cfg.Verify {
	case MechanismStrict:
		return mechanism.VerifyStrictBarter(simRes.Trace.ReleasedCursor())
	case MechanismCredit:
		return mechanism.VerifyCreditLimited(simRes.Trace.ReleasedCursor(), limit)
	case MechanismTriangular:
		return mechanism.VerifyTriangular(simRes.Trace.ReleasedCursor(), limit)
	default:
		return fmt.Errorf("core: unknown mechanism %q", cfg.Verify)
	}
}
