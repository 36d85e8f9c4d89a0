package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"barterdist/internal/asim"
	"barterdist/internal/checkpoint"
	"barterdist/internal/simulate"
)

// recorder keeps one rep's spans in memory. A nil recorder records
// nothing, so the untraced rep can share code with the traced one.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span now and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	return r.open(name, r.now(), parent)
}

func (r *recorder) open(name string, at int64, parent int) int {
	r.spans = append(r.spans, span{Name: name, StartNS: at, EndNS: at, Parent: parent})
	return len(r.spans) - 1
}

// end closes span i now.
func (r *recorder) end(i int) {
	if r != nil && i >= 0 {
		r.spans[i].EndNS = r.now()
	}
}

// seconds is span i's duration.
func (r *recorder) seconds(i int) float64 {
	return float64(r.spans[i].EndNS-r.spans[i].StartNS) / 1e9
}

// secondsOf totals the durations of every span called name.
func (r *recorder) secondsOf(name string) float64 {
	var ns int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// tickStats totals what timed schedulers saw, over one or more runs.
type tickStats struct {
	ticks, steps, ckpts []float64 // Tick, plain-gap and checkpoint-gap seconds
	ckptBytes           float64   // size of every snapshot written
}

// timedScheduler forwards a simulate.CheckpointableScheduler and times
// it from outside. Each Tick is a span under the engine's span, and so
// is each gap between two Ticks: the engine validating and applying the
// tick, appending it to the trace, and, on checkpoint ticks, writing the
// snapshot. The gap left open by the last Tick is closed by finish.
type timedScheduler struct {
	inner    simulate.Scheduler
	rec      *recorder
	parent   int
	name     string
	ckptPath string
	stats    *tickStats

	gap       int  // open gap span, -1 before the first Tick
	gapCkpt   bool // a snapshot was taken inside the open gap
	firstTick int64
}

func newTimedScheduler(inner simulate.Scheduler, rec *recorder, parent int, ck *checkpoint.Policy, stats *tickStats) *timedScheduler {
	s := &timedScheduler{
		inner:  inner,
		rec:    rec,
		parent: parent,
		name:   strings.TrimPrefix(fmt.Sprintf("%T", inner), "*") + ".Tick",
		stats:  stats,
		gap:    -1,
	}
	if ck != nil {
		s.ckptPath = ck.Path
	}
	return s
}

func (s *timedScheduler) Tick(t int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
	start := s.rec.now()
	if s.gap < 0 {
		s.firstTick = start
	} else {
		s.closeGap(start)
		start = s.rec.now()
	}
	out, err := s.inner.Tick(t, st, dst)
	end := s.rec.now()
	s.rec.spans = append(s.rec.spans, span{Name: s.name, StartNS: start, EndNS: end, Parent: s.parent})
	s.stats.ticks = append(s.stats.ticks, float64(end-start)/1e9)
	s.gap = s.rec.open("simulate.step", end, s.parent)
	return out, err
}

func (s *timedScheduler) closeGap(at int64) {
	g := &s.rec.spans[s.gap]
	g.EndNS = at
	d := float64(at-g.StartNS) / 1e9
	if s.gapCkpt {
		g.Name = "simulate.step+checkpoint"
		s.stats.ckpts = append(s.stats.ckpts, d)
		if fi, err := os.Stat(s.ckptPath); err == nil {
			s.stats.ckptBytes += float64(fi.Size())
		}
		s.gapCkpt = false
	} else {
		s.stats.steps = append(s.stats.steps, d)
	}
	s.gap = -1
}

// finish closes the gap after the last Tick; call it when the engine
// returns.
func (s *timedScheduler) finish() {
	if s.gap >= 0 {
		s.closeGap(s.rec.now())
	}
}

func (s *timedScheduler) SnapshotState(enc *checkpoint.Encoder) error {
	cs, ok := s.inner.(simulate.CheckpointableScheduler)
	if !ok {
		return fmt.Errorf("%s: scheduler is not checkpointable", s.name)
	}
	sp := s.rec.begin("SnapshotState", s.gap)
	err := cs.SnapshotState(enc)
	s.rec.end(sp)
	s.gapCkpt = true
	return err
}

func (s *timedScheduler) RestoreState(dec *checkpoint.Decoder, st *simulate.State) error {
	cs, ok := s.inner.(simulate.CheckpointableScheduler)
	if !ok {
		return fmt.Errorf("%s: scheduler is not checkpointable", s.name)
	}
	sp := s.rec.begin("RestoreState", s.parent)
	err := cs.RestoreState(dec, st)
	s.rec.end(sp)
	return err
}

// timedProtocol forwards an asim.Protocol and estimates the time spent
// in the callbacks that do the protocol's work. NextUpload and
// OnDeliver run millions of times and often take about 100 ns, as long
// as two clock reads, so it times one call in sampleEvery of those; the
// rare OnTimer calls are all timed. It records no spans.
type timedProtocol struct {
	inner   asim.Protocol
	n       [3]int     // calls of NextUpload, OnDeliver, OnTimer
	sampled [3]float64 // seconds in the timed calls of each
	calls   []float64  // duration of every timed call
}

const sampleEvery = 16

var timedEvery = [3]int{sampleEvery, sampleEvery, 1}

// timed counts a call of callback kind and reports whether to time it.
func (p *timedProtocol) timed(kind int) bool {
	p.n[kind]++
	return p.n[kind]%timedEvery[kind] == 0
}

func (p *timedProtocol) note(kind int, start time.Time) {
	d := time.Since(start).Seconds()
	p.sampled[kind] += d
	p.calls = append(p.calls, d)
}

// busy is the estimated total time inside the callbacks.
func (p *timedProtocol) busy() float64 {
	t := 0.0
	for k, n := range p.n {
		if timed := n / timedEvery[k]; timed > 0 {
			t += p.sampled[k] / float64(timed) * float64(n)
		}
	}
	return t
}

func (p *timedProtocol) count() int { return p.n[0] + p.n[1] + p.n[2] }

func (p *timedProtocol) NextUpload(u int, s *asim.State) (asim.Upload, bool) {
	if !p.timed(0) {
		return p.inner.NextUpload(u, s)
	}
	start := time.Now()
	up, ok := p.inner.NextUpload(u, s)
	p.note(0, start)
	return up, ok
}

func (p *timedProtocol) OnDeliver(from, to, block int, s *asim.State) {
	if !p.timed(1) {
		p.inner.OnDeliver(from, to, block, s)
		return
	}
	start := time.Now()
	p.inner.OnDeliver(from, to, block, s)
	p.note(1, start)
}

func (p *timedProtocol) OnTimer(idx int, s *asim.State) {
	if !p.timed(2) {
		p.inner.OnTimer(idx, s)
		return
	}
	start := time.Now()
	p.inner.OnTimer(idx, s)
	p.note(2, start)
}

func (p *timedProtocol) Wakeups() []float64      { return p.inner.Wakeups() }
func (p *timedProtocol) Neighbors(v int) []int32 { return p.inner.Neighbors(v) }
