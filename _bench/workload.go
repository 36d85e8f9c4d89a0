package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
	"unsafe"

	"barterdist"
	"barterdist/internal/analysis"
	"barterdist/internal/arrival"
	"barterdist/internal/asim"
	"barterdist/internal/bt"
	"barterdist/internal/checkpoint"
	"barterdist/internal/core"
	"barterdist/internal/graph"
	"barterdist/internal/mechanism"
	"barterdist/internal/parallel"
	"barterdist/internal/randomized"
	"barterdist/internal/schedule"
	"barterdist/internal/simulate"
	"barterdist/internal/trace"
	"barterdist/internal/xrand"
)

// workload is one named input set. A workload with a degree runs one
// Table D cell on the event-driven engine; every other workload runs
// barterdist.Run on the tick engine, once per replicate. The seed of a
// rep supplies every random choice, so the fields below fix the input's
// shape and the seed fixes the input.
type workload struct {
	name          string
	nodes, blocks int

	algorithm  core.Algorithm
	policy     randomized.Policy
	credit     int     // credit limit s; 0 = cooperative
	rate       float64 // Poisson arrivals per tick; 0 = closed batch
	ckptEvery  int     // checkpoint interval in ticks; 0 = none
	replicates int     // runs per rep, seeded as Table Scale seeds its replicates

	degree int // random-regular overlay degree of the async Table D cell
}

// The sizes keep one rep (set-up samples, run, audit and checks) near
// one to three seconds on a 2-core host, so a 20-second measurement
// holds seven or more reps. The credit-starved tail makes one
// closed-credit run's time vary by about 15% from seed to seed, so its
// rep is a Table Scale row of eight replicates.
var workloads = []workload{
	{name: "closed-credit", nodes: 2048, blocks: 64,
		algorithm: core.AlgoRandomized, policy: randomized.Random, credit: 1, replicates: 8},
	{name: "closed-pipeline", nodes: 8192, blocks: 512,
		algorithm: core.AlgoBinomialPipeline, replicates: 1},
	{name: "open-flash", nodes: 50_001, blocks: 32,
		algorithm: core.AlgoRandomized, policy: randomized.RarestFirst, rate: 64, ckptEvery: 200, replicates: 1},
	{name: "async-bt", nodes: 1024, blocks: 512, degree: 30},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// repParams are the settings of one rep that do not come from the
// workload.
type repParams struct {
	seed    uint64
	workers int    // ShardWorkers and AuditWorkers
	dir     string // directory for the rep's checkpoint file
	traced  bool
}

// outcome is what one rep reports to the parent process. Times are
// seconds; Layers holds the traced pass's per-layer values.
type outcome struct {
	SetupS      []float64          `json:"setup_s,omitempty"`
	RunS        float64            `json:"run_s"`
	AuditS      float64            `json:"audit_s"`
	Transfers   int                `json:"transfers"`
	RetainedMiB float64            `json:"retained_mib"`
	Fingerprint string             `json:"fingerprint"`
	Failure     string             `json:"failure,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// A rep takes setupSamples samples of the workload's constructors. Some
// constructors take microseconds, so a sample is the mean over calls
// repeated until setupBatch has passed.
const (
	setupSamples = 5
	setupBatch   = 20 * time.Millisecond
)

const mib = 1 << 20

// runRep runs one rep of w and returns its outcome. A failed check is
// reported in outcome.Failure next to whatever was measured.
func runRep(w workload, p repParams) outcome {
	var (
		out outcome
		err error
	)
	switch {
	case w.degree > 0 && p.traced:
		out, err = asyncTraced(w, p)
	case w.degree > 0:
		out, err = asyncRep(w, p)
	case p.traced:
		out, err = syncTraced(w, p)
	default:
		out, err = syncRep(w, p)
	}
	if err != nil {
		out.Failure = err.Error()
	}
	return out
}

// configs are the barterdist.Run configurations of one rep of a sync
// workload, one per replicate.
func (w workload) configs(p repParams) []barterdist.Config {
	cfgs := make([]barterdist.Config, w.replicates)
	for i := range cfgs {
		seed := p.seed + uint64(i)*parallel.SeedStride
		cfg := barterdist.Config{
			Nodes:        w.nodes,
			Blocks:       w.blocks,
			Algorithm:    w.algorithm,
			Policy:       w.policy,
			CreditLimit:  w.credit,
			Seed:         seed,
			ShardWorkers: p.workers,
			AuditWorkers: p.workers,
			RecordTrace:  true,
		}
		if w.rate > 0 {
			cfg.Arrivals = &barterdist.ArrivalOptions{Seed: seed + 1, Rate: w.rate}
		}
		if w.ckptEvery > 0 {
			path := filepath.Join(p.dir, fmt.Sprintf("%s-%d-%d.ckpt", w.name, os.Getpid(), i))
			cfg.Checkpoint = &barterdist.CheckpointPolicy{Path: path, Every: w.ckptEvery}
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// removeCheckpoints deletes the rep's checkpoint files. A file left
// behind only takes space in the work directory, so errors are dropped.
func removeCheckpoints(cfgs []barterdist.Config) {
	for _, cfg := range cfgs {
		if cfg.Checkpoint != nil {
			_ = os.Remove(cfg.Checkpoint.Path)
		}
	}
}

// buildSync calls the public constructors core.Run calls for cfg: the
// scheduler and, for an open swarm, the arrival plan.
func buildSync(cfg barterdist.Config) (simulate.Scheduler, *arrival.Plan, error) {
	var sched simulate.Scheduler
	if cfg.Algorithm == core.AlgoBinomialPipeline {
		s, err := schedule.NewBinomialPipeline(cfg.Nodes, cfg.Blocks)
		if err != nil {
			return nil, nil, err
		}
		sched = s
	} else {
		s, err := randomized.New(randomized.Options{
			Policy:       cfg.Policy,
			CreditLimit:  cfg.CreditLimit,
			DownloadCap:  1,
			Seed:         cfg.Seed,
			ShardWorkers: cfg.ShardWorkers,
		})
		if err != nil {
			return nil, nil, err
		}
		sched = s
	}
	if cfg.Arrivals == nil {
		return sched, nil, nil
	}
	plan, err := arrival.NewPlan(*cfg.Arrivals)
	return sched, plan, err
}

// simConfig is the engine configuration core.Run derives from cfg.
func simConfig(cfg barterdist.Config, plan *arrival.Plan) simulate.Config {
	sc := simulate.Config{
		Nodes:        cfg.Nodes,
		Blocks:       cfg.Blocks,
		RecordTrace:  true,
		AuditWorkers: cfg.AuditWorkers,
		Checkpoint:   cfg.Checkpoint,
		Arrivals:     plan,
	}
	if cfg.Algorithm == core.AlgoRandomized {
		sc.DownloadCap = 1
	}
	return sc
}

// timeSetup returns setupSamples samples of build's time, each taken
// from a collected heap.
func timeSetup(build func() error) ([]float64, error) {
	xs := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		start := time.Now()
		calls := 0
		for calls == 0 || time.Since(start) < setupBatch {
			if err := build(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			calls++
		}
		xs = append(xs, time.Since(start).Seconds()/float64(calls))
	}
	return xs, nil
}

// liveHeap returns the bytes of heap still reachable after a full
// collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// syncRep is the untraced rep of a sync workload: barterdist.Run for
// each replicate, then Table Scale's audit of each, then the checks.
func syncRep(w workload, p repParams) (outcome, error) {
	var out outcome
	cfgs := w.configs(p)
	defer removeCheckpoints(cfgs)
	var err error
	out.SetupS, err = timeSetup(func() error {
		for _, cfg := range cfgs {
			if _, _, err := buildSync(cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}

	base := liveHeap()
	results := make([]*barterdist.Result, len(cfgs))
	start := time.Now()
	for i, cfg := range cfgs {
		if results[i], err = barterdist.Run(cfg); err != nil {
			return out, fmt.Errorf("barterdist.Run: %w", err)
		}
	}
	out.RunS = time.Since(start).Seconds()
	out.RetainedMiB = (liveHeap() - base) / mib

	start = time.Now()
	for _, res := range results {
		if err := auditSync(w, res.SimConfig, res.Sim, p.workers, nil, -1); err != nil {
			return out, err
		}
	}
	out.AuditS = time.Since(start).Seconds()
	fps := make([]string, len(results))
	for i, res := range results {
		out.Transfers += res.Sim.TotalTransfers
		fps[i] = fingerprintSync(res.Sim, res.MinimalCreditLimit)
		if err := checkSync(w, res.Sim, res.MinimalCreditLimit); err != nil {
			return out, err
		}
	}
	out.Fingerprint = strings.Join(fps, " | ")
	for i, cfg := range cfgs {
		if cfg.Checkpoint == nil {
			continue
		}
		snap, err := barterdist.ReadCheckpoint(cfg.Checkpoint.Path)
		if err != nil {
			return out, err
		}
		cfg.Checkpoint = nil
		resumed, err := barterdist.Resume(cfg, snap)
		if err != nil {
			return out, fmt.Errorf("barterdist.Resume: %w", err)
		}
		if fp := fingerprintSync(resumed.Sim, resumed.MinimalCreditLimit); fp != fps[i] {
			return out, fmt.Errorf("resume from the last snapshot diverged: %s, uninterrupted %s", fp, fps[i])
		}
	}
	return out, nil
}

// auditSync is Table Scale's audit: the engine replay, plus the credit
// mechanism's ledger check on credit-limited runs. rec, when not nil,
// records each call as a child of span parent.
func auditSync(w workload, sc simulate.Config, sim *simulate.Result, workers int, rec *recorder, parent int) error {
	sp := rec.begin("simulate.RunAudit", parent)
	err := simulate.RunAudit(sc, sim)
	rec.end(sp)
	if err != nil {
		return err
	}
	if w.credit == 0 {
		return nil
	}
	sp = rec.begin("mechanism.VerifyCreditLimitedLog", parent)
	err = mechanism.VerifyCreditLimitedLog(sim.Trace, false, w.credit, workers)
	rec.end(sp)
	return err
}

// checkSync checks a sync run against invariants that hold for every
// seed.
func checkSync(w workload, sim *simulate.Result, minCredit int) error {
	var errs []error
	bound := analysis.CooperativeLowerBound(w.nodes, w.blocks)
	want := (w.nodes - 1) * w.blocks
	if sim.UsefulTransfers != want || sim.TotalTransfers != want {
		errs = append(errs, fmt.Errorf("transfers: total %d, useful %d, want (n-1)k = %d",
			sim.TotalTransfers, sim.UsefulTransfers, want))
	}
	if sim.CompletionTime < bound {
		errs = append(errs, fmt.Errorf("T = %d beats the Theorem 1 bound %d", sim.CompletionTime, bound))
	}
	if w.algorithm == core.AlgoBinomialPipeline && sim.CompletionTime != bound {
		errs = append(errs, fmt.Errorf("binomial pipeline T = %d, want the bound %d", sim.CompletionTime, bound))
	}
	if w.credit > 0 && minCredit > w.credit {
		errs = append(errs, fmt.Errorf("minimal credit limit %d exceeds s = %d", minCredit, w.credit))
	}
	if w.rate > 0 {
		o := sim.Open
		switch {
		case o == nil:
			errs = append(errs, errors.New("open run has no open-system result"))
		case o.Verdict != arrival.VerdictDrained:
			errs = append(errs, fmt.Errorf("verdict %v (%v), want drained", o.Verdict, o.Reason))
		case o.Arrived != w.nodes-1 || o.Arrived != o.Completed+o.EarlyExits+o.FinalOccupancy:
			errs = append(errs, fmt.Errorf("arrived %d, completed %d, early %d, present %d: want arrived = n-1 = completed + early + present",
				o.Arrived, o.Completed, o.EarlyExits, o.FinalOccupancy))
		}
	}
	return errors.Join(errs...)
}

// peakOccupancy is the most incomplete peers present at once: the
// open-system watchdog's count, or every client of a closed batch.
func peakOccupancy(w workload, sim *simulate.Result) int {
	if sim.Open != nil {
		return sim.Open.PeakOccupancy
	}
	return w.nodes - 1
}

// syncTraced is the traced rep of a sync workload. It builds each
// replicate from the constructors core.Run uses and calls simulate.Run
// through a timed scheduler, then repeats the untraced rep's audit and
// checks with every layer call timed.
func syncTraced(w workload, p repParams) (outcome, error) {
	var out outcome
	cfgs := w.configs(p)
	defer removeCheckpoints(cfgs)
	rec := newRecorder()
	stats := &tickStats{}
	type tracedRun struct {
		sim       *simulate.Result
		minCredit int
		audit     simulate.Config // as core.Result.SimConfig
		span      int
	}
	runs := make([]tracedRun, len(cfgs))

	root := rec.begin("run", -1)
	for i, cfg := range cfgs {
		sp := rec.begin("setup", root)
		sched, plan, err := buildSync(cfg)
		rec.end(sp)
		if err != nil {
			return out, err
		}
		sc := simConfig(cfg, plan)
		r := &runs[i]
		r.span = rec.begin("simulate.Run", root)
		ts := newTimedScheduler(sched, rec, r.span, cfg.Checkpoint, stats)
		r.sim, err = simulate.Run(sc, ts)
		ts.finish()
		rec.end(r.span)
		if err != nil {
			return out, fmt.Errorf("simulate.Run: %w", err)
		}
		sp = rec.begin("mechanism.MinimalCreditLimitLog", root)
		r.minCredit = mechanism.MinimalCreditLimitLog(r.sim.Trace, false, cfg.AuditWorkers)
		rec.end(sp)
		r.audit = sc
		r.audit.Checkpoint, r.audit.Arrivals = nil, nil
	}
	rec.end(root)
	out.RunS = rec.seconds(root)

	audit := rec.begin("audit", -1)
	for _, r := range runs {
		if err := auditSync(w, r.audit, r.sim, p.workers, rec, audit); err != nil {
			rec.end(audit)
			return out, err
		}
	}
	rec.end(audit)
	out.AuditS = rec.seconds(audit)
	decode := rec.begin("trace.decode", -1)
	fps := make([]string, len(runs))
	for i, r := range runs {
		fps[i] = fingerprintSync(r.sim, r.minCredit)
	}
	rec.end(decode)
	out.Fingerprint = strings.Join(fps, " | ")

	var traceBytes, traceLen, ticks, peak float64
	self := selfTimes(rec.spans)
	unattributed := self[root]
	for _, r := range runs {
		if err := checkSync(w, r.sim, r.minCredit); err != nil {
			return out, err
		}
		out.Transfers += r.sim.TotalTransfers
		traceBytes += float64(r.sim.Trace.MemSize())
		traceLen += float64(r.sim.Trace.Len())
		ticks += float64(r.sim.CompletionTime)
		peak = max(peak, float64(peakOccupancy(w, r.sim)))
		unattributed += self[r.span]
	}

	// A checkpoint gap holds an ordinary step plus the snapshot; the
	// step part is taken to be the median plain gap.
	stepS, ckptS := sum(stats.steps), 0.0
	if n := len(stats.ckpts); n > 0 {
		typical := median(stats.steps) * float64(n)
		stepS += typical
		ckptS = sum(stats.ckpts) - typical
	}
	propose := sum(stats.ticks)
	out.Layers = map[string]float64{
		"sched.propose_s":          propose,
		"sched.calls":              float64(len(stats.ticks)),
		"engine.step_s":            stepS,
		"engine.ns_per_transfer":   stepS / float64(out.Transfers) * 1e9,
		"engine.transfers":         float64(out.Transfers),
		"trace.mib":                traceBytes / mib,
		"trace.bytes_per_transfer": traceBytes / traceLen,
		"trace.decode_s":           rec.seconds(decode),
		"audit.replay_s":           rec.secondsOf("simulate.RunAudit"),
		"checkpoint.writes":        float64(len(stats.ckpts)),
		"checkpoint.mib":           stats.ckptBytes / mib,
		"swarm.peak_occupancy":     peak,
		"unattributed_s":           float64(unattributed) / 1e9,

		"setup.build_s":          rec.secondsOf("setup"),
		"engine.ticks":           ticks,
		"engine.reconciled_frac": (propose + stepS + ckptS) / rec.secondsOf("simulate.Run"),
		"mechanism.min_credit_s": rec.secondsOf("mechanism.MinimalCreditLimitLog"),
	}
	addCallStats(out.Layers, stats.ticks)
	if w.credit > 0 {
		out.Layers["mechanism.verify_credit_s"] = rec.secondsOf("mechanism.VerifyCreditLimitedLog")
	}
	if w.ckptEvery > 0 {
		out.Layers["checkpoint.write_s"] = ckptS
		out.Layers["sched.snapshot_s"] = rec.secondsOf("SnapshotState")
		restore := 0.0
		for i, cfg := range cfgs {
			s, err := resumeTraced(cfg, rec, fps[i])
			if err != nil {
				return out, err
			}
			restore += s
		}
		out.Layers["checkpoint.read_s"] = rec.secondsOf("checkpoint.ReadFile")
		out.Layers["checkpoint.restore_s"] = restore
	}
	out.Spans = rec.spans
	return out, nil
}

// resumeTraced reads a run's last snapshot and resumes it through a
// fresh timed scheduler; the result must equal the uninterrupted run.
// It returns the restore time: from entering simulate.Resume to its
// first Tick.
func resumeTraced(cfg barterdist.Config, rec *recorder, want string) (float64, error) {
	sp := rec.begin("checkpoint.ReadFile", -1)
	snap, err := checkpoint.ReadFile(cfg.Checkpoint.Path)
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	cfg.Checkpoint = nil
	sched, plan, err := buildSync(cfg)
	if err != nil {
		return 0, err
	}
	resume := rec.begin("simulate.Resume", -1)
	ts := newTimedScheduler(sched, rec, resume, nil, &tickStats{})
	sim, err := simulate.Resume(simConfig(cfg, plan), ts, snap)
	ts.finish()
	rec.end(resume)
	if err != nil {
		return 0, fmt.Errorf("simulate.Resume: %w", err)
	}
	minCredit := mechanism.MinimalCreditLimitLog(sim.Trace, false, cfg.AuditWorkers)
	if fp := fingerprintSync(sim, minCredit); fp != want {
		return 0, fmt.Errorf("resume from the last snapshot diverged: %s, uninterrupted %s", fp, want)
	}
	return float64(ts.firstTick-rec.spans[resume].StartNS) / 1e9, nil
}

// asyncConfig is the engine configuration of both runs of the Table D
// cell, with the trace on for the audit.
func (w workload) asyncConfig(p repParams) asim.Config {
	return asim.Config{
		Nodes: w.nodes, Blocks: w.blocks, DownloadPorts: 1,
		RecordTrace: true, ShardWorkers: p.workers, AuditWorkers: p.workers,
	}
}

// asyncCell holds the two results of one Table D cell: BitTorrent, then
// async rarest-first on the same graph.
type asyncCell [2]*asim.Result

// buildAsync calls the Table D cell's constructors.
func buildAsync(w workload, seed uint64) (*graph.Graph, *bt.Protocol, *asim.AsyncRandomized, error) {
	g, err := graph.RandomRegular(w.nodes, w.degree, xrand.New(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	proto, err := bt.New(bt.Options{Graph: g, DownloadPorts: 1, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	return g, proto, asim.NewAsyncRandomized(g, true, 1, seed), nil
}

// asyncRep is the untraced rep of the async workload: the Table D cell
// (graph plus both asim.Run calls), then asim.RunAudit on each run.
func asyncRep(w workload, p repParams) (outcome, error) {
	var out outcome
	var err error
	out.SetupS, err = timeSetup(func() error { _, _, _, err := buildAsync(w, p.seed); return err })
	if err != nil {
		return out, err
	}
	cfg := w.asyncConfig(p)

	base := liveHeap()
	start := time.Now()
	var cell asyncCell
	_, proto, free, err := buildAsync(w, p.seed)
	if err != nil {
		return out, err
	}
	if cell[0], err = asim.Run(cfg, proto); err != nil {
		return out, fmt.Errorf("asim.Run(bittorrent): %w", err)
	}
	if cell[1], err = asim.Run(cfg, free); err != nil {
		return out, fmt.Errorf("asim.Run(randomized): %w", err)
	}
	out.RunS = time.Since(start).Seconds()
	out.RetainedMiB = (liveHeap() - base) / mib
	out.Transfers = cell[0].Transfers + cell[1].Transfers

	start = time.Now()
	err = auditAsync(cfg, cell, nil, -1)
	out.AuditS = time.Since(start).Seconds()
	if err != nil {
		return out, err
	}
	out.Fingerprint = fingerprintAsync(cell)
	return out, checkAsync(w, cell)
}

func auditAsync(cfg asim.Config, cell asyncCell, rec *recorder, parent int) error {
	for _, r := range cell {
		sp := rec.begin("asim.RunAudit", parent)
		err := asim.RunAudit(cfg, r)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// checkAsync checks both runs of the cell against invariants that hold
// for every seed.
func checkAsync(w workload, cell asyncCell) error {
	var errs []error
	bound := float64(analysis.CooperativeLowerBound(w.nodes, w.blocks))
	want := (w.nodes - 1) * w.blocks
	for i, r := range cell {
		if r.Transfers != want || r.Lost != 0 || r.Corrupt != 0 {
			errs = append(errs, fmt.Errorf("run %d: %d deliveries (%d lost, %d corrupt), want (n-1)k = %d",
				i, r.Transfers, r.Lost, r.Corrupt, want))
		}
		if r.CompletionTime < bound {
			errs = append(errs, fmt.Errorf("run %d: T = %g beats the Theorem 1 bound %g", i, r.CompletionTime, bound))
		}
	}
	return errors.Join(errs...)
}

// asyncTraced is the traced rep of the async workload. Both protocols
// run behind a timed wrapper, and each constructor is a span.
func asyncTraced(w workload, p repParams) (outcome, error) {
	var out outcome
	cfg := w.asyncConfig(p)
	rec := newRecorder()

	root := rec.begin("run", -1)
	sp := rec.begin("graph.RandomRegular", root)
	g, err := graph.RandomRegular(w.nodes, w.degree, xrand.New(p.seed))
	rec.end(sp)
	if err != nil {
		return out, err
	}
	sp = rec.begin("bt.New", root)
	proto, err := bt.New(bt.Options{Graph: g, DownloadPorts: 1, Seed: p.seed})
	rec.end(sp)
	if err != nil {
		return out, err
	}
	var cell asyncCell
	btp := &timedProtocol{inner: proto}
	sp = rec.begin("asim.Run", root)
	cell[0], err = asim.Run(cfg, btp)
	rec.end(sp)
	if err != nil {
		return out, fmt.Errorf("asim.Run(bittorrent): %w", err)
	}
	sp = rec.begin("asim.NewAsyncRandomized", root)
	free := asim.NewAsyncRandomized(g, true, 1, p.seed)
	rec.end(sp)
	freep := &timedProtocol{inner: free}
	sp = rec.begin("asim.Run", root)
	cell[1], err = asim.Run(cfg, freep)
	rec.end(sp)
	if err != nil {
		return out, fmt.Errorf("asim.Run(randomized): %w", err)
	}
	rec.end(root)
	out.RunS = rec.seconds(root)
	out.Transfers = cell[0].Transfers + cell[1].Transfers

	audit := rec.begin("audit", -1)
	err = auditAsync(cfg, cell, rec, audit)
	rec.end(audit)
	out.AuditS = rec.seconds(audit)
	if err != nil {
		return out, err
	}
	sp = rec.begin("trace.decode", -1)
	out.Fingerprint = fingerprintAsync(cell)
	rec.end(sp)
	decode := rec.seconds(sp)
	if err := checkAsync(w, cell); err != nil {
		return out, err
	}

	protocol := btp.busy() + freep.busy()
	engine := rec.secondsOf("asim.Run") - protocol
	var records, recordBytes int
	for _, r := range cell {
		records += len(r.Trace)
		recordBytes += cap(r.Trace) * int(unsafe.Sizeof(asim.TransferRecord{}))
	}
	self := selfTimes(rec.spans)
	out.Layers = map[string]float64{
		"sched.propose_s":          protocol,
		"sched.calls":              float64(btp.count() + freep.count()),
		"engine.step_s":            engine,
		"engine.ns_per_transfer":   engine / float64(out.Transfers) * 1e9,
		"engine.transfers":         float64(out.Transfers),
		"trace.mib":                float64(recordBytes) / mib,
		"trace.bytes_per_transfer": float64(recordBytes) / float64(records),
		"trace.decode_s":           decode,
		"audit.replay_s":           rec.secondsOf("asim.RunAudit"),
		"checkpoint.writes":        0,
		"checkpoint.mib":           0,
		"swarm.peak_occupancy":     float64(w.nodes - 1),
		"unattributed_s":           float64(self[root]) / 1e9,

		"graph.build_s":              rec.secondsOf("graph.RandomRegular"),
		"bt.protocol_s":              btp.busy(),
		"asim.randomized_protocol_s": freep.busy(),
	}
	addCallStats(out.Layers, append(btp.calls, freep.calls...))
	out.Spans = rec.spans
	return out, nil
}

// addCallStats adds the median and tail of per-call scheduler times,
// given in seconds; it sorts calls.
func addCallStats(layers map[string]float64, calls []float64) {
	sort.Float64s(calls)
	pct, tail := tailPercentile(calls)
	layers["sched.call_p50_us"] = median(calls) * 1e6
	layers["sched.call_tail_us"] = tail * 1e6
	layers["sched.call_tail_pct"] = pct
}

// fingerprintSync condenses a sync run into the values the golden
// check compares: T, transfer counts, minimal credit limit, hashes of
// the completion vector and of the whole trace (read by a Window walk),
// and for open swarms the verdict and occupancy.
func fingerprintSync(sim *simulate.Result, minCredit int) string {
	var ch hash64 = fnvOffset
	for _, c := range sim.ClientCompletion {
		ch.add(uint64(c))
	}
	fp := fmt.Sprintf("T=%d total=%d useful=%d mincredit=%d completion=%016x trace=%016x",
		sim.CompletionTime, sim.TotalTransfers, sim.UsefulTransfers, minCredit, uint64(ch), traceHash(sim.Trace))
	if o := sim.Open; o != nil {
		fp += fmt.Sprintf(" open=%v arrived=%d completed=%d peak=%d", o.Verdict, o.Arrived, o.Completed, o.PeakOccupancy)
	}
	return fp
}

// traceHash hashes every transfer and every tick boundary of l.
func traceHash(l *trace.Log) uint64 {
	var h hash64 = fnvOffset
	var win trace.Win
	for i := 0; i < l.Len(); {
		from, to, block, _, end := l.Window(&win, i)
		for j := range from {
			h.add(uint64(from[j])<<32 | uint64(to[j]))
			h.add(uint64(block[j]))
		}
		i = end
	}
	for t := 0; t < l.Ticks(); t++ {
		h.add(uint64(l.TickLen(t)))
	}
	return uint64(h)
}

// fingerprintAsync condenses both runs of the cell like fingerprintSync.
func fingerprintAsync(cell asyncCell) string {
	fp := ""
	for i, r := range cell {
		var ch, th hash64 = fnvOffset, fnvOffset
		for _, c := range r.ClientCompletion {
			ch.add(uint64(int64(c * 1e6)))
		}
		for _, tr := range r.Trace {
			th.add(uint64(int64(tr.Start*1e6))<<32 ^ uint64(int64(tr.End*1e6)))
			th.add(uint64(tr.From)<<40 ^ uint64(tr.To)<<20 ^ uint64(tr.Block))
		}
		if i > 0 {
			fp += " | "
		}
		fp += fmt.Sprintf("T=%g deliveries=%d completion=%016x trace=%016x",
			r.CompletionTime, r.Transfers, uint64(ch), uint64(th))
	}
	return fp
}

// hash64 is word-wise FNV-1a: enough to tell two runs apart, cheap
// enough to walk a 10⁷-transfer trace in a fraction of a second.
type hash64 uint64

const fnvOffset hash64 = 14695981039346656037

func (h *hash64) add(x uint64) { *h = (*h ^ hash64(x)) * 1099511628211 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
