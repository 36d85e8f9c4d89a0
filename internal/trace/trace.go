// Package trace stores simulation transfer traces in columnar,
// append-only, frame-compressed form.
//
// The synchronous engine used to record its trace as [][]Transfer — a
// slice header plus a backing array per tick, with two more ragged
// slices ([][]int, [][]uint8) on the side for drops. At n = 10^5 peers
// a single run schedules ~n·k ≈ 6.4M transfers, and the per-tick slice
// churn made tracing OOM-class. A Log stores the same information as
// flat columns:
//
//	from, to, block            one entry per scheduled transfer,
//	                           frame-compressed (see below)
//	tickEnd         []uint32   prefix offsets: tick t (0-based) spans
//	                           [tickEnd[t-1], tickEnd[t])
//	dropPos         []uint32   global transfer indices of drops,
//	                           strictly ascending
//	dropKind        []uint8    packed two-per-byte drop kinds (kinded
//	                           logs only)
//	dropTickEnd     []uint32   prefix offsets over dropPos per tick
//
// The three per-transfer columns are the bulk of the footprint — a
// flat 12 B/transfer, ≈768 MiB of columns alone at n=10⁶ — so they
// are stored as fixed-size frames of 64Ki entries. Appends land in a
// raw open tail; when the tail reaches the frame size, the AppendTick
// call that filled it seals it into an immutable byte block whose
// three columns each pick the cheapest of const/bitpack/delta/
// low-bit-RLE encodings (frame.go), which measures under 5 B/transfer
// on the Table Scale runs. The seal runs on the tick that fills the
// frame, not on every tick: one pass per column estimates every
// encoding's cost, so it amortizes to a few tens of ns per transfer. The tick and drop offset columns stay raw: they
// are per-tick, not per-transfer, and the auditors index them
// directly.
//
// Appending a tick touches only the open tail, so steady-state
// recording is allocation-free once the columns are Reserved; sealing
// costs one exact-size allocation per 64Ki transfers. Consumers —
// fingerprints, the post-hoc auditors, the mechanism verifiers,
// cdverify — read the Log through a streaming Cursor or a Window and
// never materialize the nested form. A sealed Log is immutable shared
// state: any number of goroutines may read it concurrently as long as
// each owns its Cursor or Win.
//
// # Adding a column
//
// New per-transfer attributes get their own column appended in
// AppendTick, a Cols bit, and a Span field; per-tick attributes get a
// raw []T column indexed by tick. Keep columns parallel (same length
// invariants as from/to/block) and extend Reserve with the new column;
// a per-transfer column that matters at scale gets its own frame
// encoding in frame.go.
package trace

import "fmt"

// Transfer is one block moving from one node to another within a tick.
// It is the unit every column triple (from, to, block) encodes; the
// synchronous simulator aliases this type.
type Transfer struct {
	From  int32
	To    int32
	Block int32
}

// Drop kinds, recorded per dropped transfer in kinded logs. The order
// is load-bearing: kinds below KindRefused are network faults, kinds
// at or above it are the sender's own strategy (and are filtered from
// the released view the mechanism verifiers audit).
const (
	// KindFault: vanished in the network (fault layer).
	KindFault uint8 = iota
	// KindFaultCorrupt: corrupted in the network, discarded at
	// verification.
	KindFaultCorrupt
	// KindRefused: the sender silently refused (free-rider, completed
	// defector, throttler outside its window).
	KindRefused
	// KindStalled: a false-advertiser's claimed block never
	// materialized.
	KindStalled
	// KindGarbage: a corrupter's bytes failed verification.
	KindGarbage

	// NumKinds is the number of distinct drop kinds.
	NumKinds = int(KindGarbage) + 1
)

// Log is a columnar, append-only transfer trace. The zero value is not
// ready; use New.
type Log struct {
	frames                      []frame  // sealed 64Ki-entry blocks
	openFrom, openTo, openBlock []uint32 // raw tail, < frameLen entries
	tickEnd                     []uint32
	dropPos                     []uint32
	dropKind                    []uint8 // two kinds per byte, low nibble first
	kindLen                     int     // kinds stored in dropKind
	dropTickEnd                 []uint32
	kinded                      bool

	enc *encScratch // seal workspace, lazily allocated
	win *Win        // At/Set decode window; not for concurrent readers
}

// New returns an empty log. kinded selects whether per-drop kinds are
// recorded (adversarial runs); unkinded logs treat every drop as a
// network fault.
func New(kinded bool) *Log { return &Log{kinded: kinded} }

// Reserve grows the columns to hold at least the given number of
// *further* transfers, ticks, and drops without allocation on the
// append path. Closed runs derive the transfer hint from the
// completion bound — a full run delivers exactly (n-1)·k useful
// blocks, so that is the floor on the scheduled-transfer count.
//
// Reservation is frame-granular: the open tail never needs more than
// one frame's worth of capacity, so a reservation beyond frameLen
// transfers sizes the tail to a full frame and pre-grows the sealed
// frame index instead. Seals themselves still allocate (one
// exact-size block per 64Ki transfers). A seal runs inside the
// AppendTick that fills a frame, so that one tick pays for it; the
// allocation amortizes to well under one per tick.
//
// The counts are hints, never caps. Open-system runs have no fixed
// (n-1)·k bound — the cumulative arrival stream is unbounded and a
// truncated (Unstable) run can deliver far less or idle far longer
// than any estimate — so appends past the reservation simply fall back
// to Go's append doubling; nothing is dropped and nothing over-runs.
// Reserve is also additive from the current length, so a caller that
// discovers mid-run that its estimate was short may Reserve again to
// restore the zero-alloc steady state.
func (l *Log) Reserve(transfers, ticks, drops int) {
	grow32 := func(s []uint32, n int) []uint32 {
		if cap(s)-len(s) >= n {
			return s
		}
		out := make([]uint32, len(s), len(s)+n)
		copy(out, s)
		return out
	}
	if transfers > 0 {
		// The open tail seals at frameLen entries, so it never needs
		// more capacity than one frame regardless of the hint.
		t := transfers
		if len(l.openFrom)+t > frameLen {
			t = frameLen - len(l.openFrom)
		}
		if t > 0 {
			l.openFrom = grow32(l.openFrom, t)
			l.openTo = grow32(l.openTo, t)
			l.openBlock = grow32(l.openBlock, t)
		}
		if extra := transfers >> frameShift; extra > 0 && cap(l.frames)-len(l.frames) < extra {
			out := make([]frame, len(l.frames), len(l.frames)+extra)
			copy(out, l.frames)
			l.frames = out
		}
		if transfers >= frameLen && l.enc == nil {
			l.enc = newEncScratch()
		}
	}
	if ticks > 0 {
		l.tickEnd = grow32(l.tickEnd, ticks)
		l.dropTickEnd = grow32(l.dropTickEnd, ticks)
	}
	if drops > 0 {
		l.dropPos = grow32(l.dropPos, drops)
		if l.kinded && cap(l.dropKind)-len(l.dropKind) < (drops+1)/2 {
			out := make([]uint8, len(l.dropKind), len(l.dropKind)+(drops+1)/2)
			copy(out, l.dropKind)
			l.dropKind = out
		}
	}
}

// AppendTick records one tick: ts is the tick's scheduled transfer
// list, dropIdx the strictly ascending local indices (into ts) of the
// transfers that never delivered, and dropKinds their causes (required
// for kinded logs, ignored otherwise). The slices are copied; callers
// reuse them across ticks.
func (l *Log) AppendTick(ts []Transfer, dropIdx []int32, dropKinds []uint8) {
	base := uint32(l.Len())
	for _, tr := range ts {
		l.openFrom = append(l.openFrom, uint32(tr.From))
		l.openTo = append(l.openTo, uint32(tr.To))
		l.openBlock = append(l.openBlock, uint32(tr.Block))
		if len(l.openFrom) == frameLen {
			l.sealOpen()
		}
	}
	l.tickEnd = append(l.tickEnd, uint32(l.Len()))
	prev := int32(-1)
	for _, idx := range dropIdx {
		if idx <= prev || int(idx) >= len(ts) {
			panic(fmt.Sprintf("trace: drop index %d out of order or out of range (tick of %d transfers)", idx, len(ts)))
		}
		prev = idx
		l.dropPos = append(l.dropPos, base+uint32(idx))
	}
	if l.kinded {
		if len(dropKinds) != len(dropIdx) {
			panic(fmt.Sprintf("trace: %d drop kinds for %d drops in a kinded log", len(dropKinds), len(dropIdx)))
		}
		for _, k := range dropKinds {
			l.appendKind(k)
		}
	}
	l.dropTickEnd = append(l.dropTickEnd, uint32(len(l.dropPos)))
}

// appendKind packs one more drop kind. The kind for drop j lives in
// dropKind[j/2], low nibble for even j; kinds are appended in the same
// order as dropPos entries.
func (l *Log) appendKind(k uint8) {
	j := l.kindLen
	if j%2 == 0 {
		l.dropKind = append(l.dropKind, k&0x0f)
	} else {
		l.dropKind[j/2] |= (k & 0x0f) << 4
	}
	l.kindLen++
}

// kindAt returns the kind of drop j (an index into dropPos).
func (l *Log) kindAt(j int) uint8 {
	b := l.dropKind[j/2]
	if j%2 == 1 {
		b >>= 4
	}
	return b & 0x0f
}

// Ticks returns the number of recorded ticks.
func (l *Log) Ticks() int { return len(l.tickEnd) }

// Len returns the total number of scheduled transfers.
func (l *Log) Len() int { return l.sealedLen() + len(l.openFrom) }

// Drops returns the total number of recorded drops.
func (l *Log) Drops() int { return len(l.dropPos) }

// Kinded reports whether per-drop kinds are recorded.
func (l *Log) Kinded() bool { return l.kinded }

// At returns transfer i (a global index in [0, Len())). Sealed frames
// are decoded through the Log's shared window, so At is for
// single-goroutine use; concurrent readers take a Cursor or Window.
func (l *Log) At(i int) Transfer {
	if l.win == nil {
		l.win = &Win{}
	}
	from, to, block, base, _ := l.Window(l.win, i)
	j := i - base
	return Transfer{From: int32(from[j]), To: int32(to[j]), Block: int32(block[j])}
}

// Set overwrites transfer i. It exists for the audit tests, which
// doctor recorded traces to prove the auditors catch tampering; a Set
// inside a sealed frame re-encodes that frame.
func (l *Log) Set(i int, tr Transfer) {
	if l.win == nil {
		l.win = &Win{}
	}
	from, to, block, base, _ := l.Window(l.win, i)
	j := i - base
	from[j], to[j], block[j] = uint32(tr.From), uint32(tr.To), uint32(tr.Block)
	if i < l.sealedLen() {
		l.reencodeFrame(i>>frameShift, l.win)
	}
}

// TruncateTicks discards every tick at or after t (0-based), keeping
// the first t ticks. Like Set, it exists for the audit tests, which
// doctor recorded traces to prove the auditors catch tampering. A cut
// inside a sealed frame reopens that frame: its surviving prefix
// becomes the raw open tail again.
func (l *Log) TruncateTicks(t int) {
	if t >= l.Ticks() {
		return
	}
	var end, dend uint32
	if t > 0 {
		end, dend = l.tickEnd[t-1], l.dropTickEnd[t-1]
	}
	n := int(end)
	if s := l.sealedLen(); n >= s {
		keep := n - s
		l.openFrom = l.openFrom[:keep]
		l.openTo = l.openTo[:keep]
		l.openBlock = l.openBlock[:keep]
	} else {
		var w Win
		from, to, block, base, _ := l.Window(&w, n)
		keep := n - base
		l.frames = l.frames[:n>>frameShift]
		l.openFrom = append(l.openFrom[:0], from[:keep]...)
		l.openTo = append(l.openTo[:0], to[:keep]...)
		l.openBlock = append(l.openBlock[:0], block[:keep]...)
		if l.win != nil {
			l.win.have = 0
		}
	}
	l.tickEnd = l.tickEnd[:t]
	l.dropPos = l.dropPos[:dend]
	l.dropTickEnd = l.dropTickEnd[:t]
	if l.kinded {
		l.kindLen = int(dend)
		l.dropKind = l.dropKind[:(dend+1)/2]
		if dend%2 == 1 {
			l.dropKind[dend/2] &= 0x0f // clear the stale high nibble
		}
	}
}

// TickSpan returns the global index range [start, end) of tick t
// (0-based).
func (l *Log) TickSpan(t int) (start, end int) {
	if t > 0 {
		start = int(l.tickEnd[t-1])
	}
	return start, int(l.tickEnd[t])
}

// TickLen returns the number of transfers scheduled in tick t (0-based).
func (l *Log) TickLen(t int) int {
	start, end := l.TickSpan(t)
	return end - start
}

// dropSpan returns the range of dropPos indices belonging to tick t.
func (l *Log) dropSpan(t int) (start, end int) {
	if t > 0 {
		start = int(l.dropTickEnd[t-1])
	}
	return start, int(l.dropTickEnd[t])
}

// AppendTickTransfers appends tick t's transfers to dst and returns it.
func (l *Log) AppendTickTransfers(t int, dst []Transfer) []Transfer {
	start, end := l.TickSpan(t)
	for i := start; i < end; i++ {
		dst = append(dst, l.At(i))
	}
	return dst
}

// AppendTickDrops appends tick t's drop indices (local to the tick) and
// kinds to idx and kinds and returns both. For unkinded logs kinds is
// returned unchanged.
func (l *Log) AppendTickDrops(t int, idx []int32, kinds []uint8) ([]int32, []uint8) {
	tickStart, _ := l.TickSpan(t)
	ds, de := l.dropSpan(t)
	for j := ds; j < de; j++ {
		idx = append(idx, int32(int(l.dropPos[j])-tickStart))
		if l.kinded {
			kinds = append(kinds, l.kindAt(j))
		}
	}
	return idx, kinds
}

// MemSize returns the approximate heap footprint of the columns in
// bytes, for capacity reporting in scale experiments: the compressed
// sealed frames, the raw open tail, and the tick/drop offset columns.
// Decode windows and the seal scratch are transient per-reader
// workspace (one frame's worth each) and are not counted.
func (l *Log) MemSize() int {
	sz := 0
	for i := range l.frames {
		sz += len(l.frames[i].data)
	}
	return sz +
		4*(cap(l.openFrom)+cap(l.openTo)+cap(l.openBlock)) +
		4*(cap(l.tickEnd)+cap(l.dropPos)+cap(l.dropTickEnd)) +
		cap(l.dropKind)
}

// Compact trims the open tail's spare capacity (reserved at frame
// granularity for the append path) and drops the seal and decode
// workspaces. The engines call it once recording ends, so MemSize and
// resident memory reflect the compressed columns alone; appending
// after Compact is correct but re-allocates.
func (l *Log) Compact() {
	trim := func(s []uint32) []uint32 {
		if cap(s) == len(s) {
			return s
		}
		out := make([]uint32, len(s))
		copy(out, s)
		return out
	}
	l.openFrom = trim(l.openFrom)
	l.openTo = trim(l.openTo)
	l.openBlock = trim(l.openBlock)
	l.enc = nil
	l.win = nil
}

// Cursor returns a streaming cursor over every scheduled transfer.
func (l *Log) Cursor() *Cursor { return &Cursor{l: l, t: -1} }

// ReleasedCursor returns a cursor over the released view: transfers a
// sender's own strategy refused, stalled, or garbled (kind >=
// KindRefused) are skipped — they were never released, so the
// mechanism verifiers must not charge them. Network-fault drops stay
// in: a block lost in flight still consumed the sender's credit. For
// unkinded logs the released view is the full trace.
func (l *Log) ReleasedCursor() *Cursor { return &Cursor{l: l, t: -1, released: true} }

// Span is a run of consecutive transfers of one tick, as column slices
// into the cursor's decode window: entry j is the transfer at tick-local
// index Index+j. A span never crosses a frame boundary or a drop; a
// dropped transfer is a span of its own. Columns the cursor was not
// asked for (Cursor.Only) are nil. The slices are valid until the
// cursor moves on.
type Span struct {
	From, To, Block []uint32
	Index           int
	Dropped         bool
	Kind            uint8 // the drop's kind; KindFault unless Dropped in a kinded log
}

// Cursor streams a Log tick by tick, a span at a time:
//
//	c := log.Cursor()
//	for c.NextTick() {
//		for c.NextSpan() {
//			s := c.Span()
//			for j, u := range s.From { ... s.To[j] ... }
//			if s.Dropped { ... s.Kind ... }
//		}
//	}
//
// Next and Transfer step through the same spans one transfer at a time,
// for readers that want a Transfer value. A tick is read either by
// spans or by Next, not both.
//
// A cursor is single-use and must not outlive mutation of the Log.
// Each cursor owns its decode window, so any number of cursors may
// stream the same (no longer appended-to) Log concurrently.
type Cursor struct {
	l        *Log
	released bool

	t          int // current tick, 0-based; -1 before NextTick
	start, end int // transfer span of current tick
	di, de     int // dropPos span: next candidate drop, tick end
	i          int // next transfer not yet in a span

	span Span
	n, j int // span length; Next's position in it

	win Win // per-cursor decode window over sealed frames
}

// Only restricts the cursor to the columns in cols, so sealed frames
// decode nothing else; the other Span columns read nil, and Transfer
// needs all three. It returns c.
func (c *Cursor) Only(cols Cols) *Cursor {
	c.win.Only(cols)
	return c
}

// NextTick advances to the next tick, returning false past the end.
// Any unvisited transfers of the previous tick are skipped.
func (c *Cursor) NextTick() bool {
	c.t++
	if c.t >= c.l.Ticks() {
		return false
	}
	c.start, c.end = c.l.TickSpan(c.t)
	c.di, c.de = c.l.dropSpan(c.t)
	c.i = c.start
	c.n, c.j = 0, -1
	return true
}

// Tick returns the 1-based tick number of the current tick.
func (c *Cursor) Tick() int { return c.t + 1 }

// TickLen returns the number of transfers scheduled in the current
// tick (including ones a released cursor will skip).
func (c *Cursor) TickLen() int { return c.end - c.start }

// NextSpan advances to the next span of the current tick, returning
// false past the tick's end. A released cursor skips the drops its view
// excludes.
func (c *Cursor) NextSpan() bool {
	for c.i < c.end {
		i := c.i
		if c.di < c.de && int(c.l.dropPos[c.di]) == i {
			kind := KindFault
			if c.l.kinded {
				kind = c.l.kindAt(c.di)
			}
			c.di++
			c.i++
			if c.released && kind >= KindRefused {
				continue // never released by the sender
			}
			c.setSpan(i, i+1, true, kind)
			return true
		}
		stop := c.end
		if c.di < c.de {
			stop = min(stop, int(c.l.dropPos[c.di]))
		}
		c.setSpan(i, stop, false, KindFault)
		return true
	}
	return false
}

// setSpan makes the transfers [i, stop) the current span, cut short at
// the end of i's frame, and moves the cursor past them.
func (c *Cursor) setSpan(i, stop int, dropped bool, kind uint8) {
	from, to, block, base, end := c.l.Window(&c.win, i)
	stop = min(stop, end)
	cut := func(col []uint32) []uint32 {
		if col == nil {
			return nil
		}
		return col[i-base : stop-base]
	}
	c.span = Span{From: cut(from), To: cut(to), Block: cut(block), Index: i - c.start, Dropped: dropped, Kind: kind}
	c.i = stop
	c.n, c.j = stop-i, -1
}

// Span returns the current span.
func (c *Cursor) Span() Span { return c.span }

// Next advances to the next transfer within the current tick.
func (c *Cursor) Next() bool {
	if c.j+1 < c.n {
		c.j++
		return true
	}
	if !c.NextSpan() {
		return false
	}
	c.j = 0
	return true
}

// Transfer returns the current transfer.
func (c *Cursor) Transfer() Transfer {
	s, j := &c.span, c.j
	return Transfer{From: int32(s.From[j]), To: int32(s.To[j]), Block: int32(s.Block[j])}
}

// Index returns the current transfer's local index within its tick.
func (c *Cursor) Index() int { return c.span.Index + c.j }

// Dropped reports whether the current transfer never delivered.
func (c *Cursor) Dropped() bool { return c.span.Dropped }

// Kind returns the current transfer's drop kind; meaningful only when
// Dropped() is true and the log is kinded (KindFault otherwise).
func (c *Cursor) Kind() uint8 { return c.span.Kind }

// FromTicks builds a Log from the nested representation: per-tick
// transfer lists, per-tick drop index lists (local, strictly
// ascending; may be shorter than ticks or nil), and — for kinded
// logs — per-tick drop kinds parallel to drops. It exists for tests
// and for proving the columnar form equivalent to the historical one.
func FromTicks(ticks [][]Transfer, drops [][]int, kinds [][]uint8, kinded bool) *Log {
	l := New(kinded)
	var idx []int32
	var kk []uint8
	for t, ts := range ticks {
		idx = idx[:0]
		kk = kk[:0]
		if t < len(drops) {
			for j, d := range drops[t] {
				idx = append(idx, int32(d))
				if kinded {
					if t < len(kinds) && j < len(kinds[t]) {
						kk = append(kk, kinds[t][j])
					} else {
						kk = append(kk, KindFault)
					}
				}
			}
		}
		l.AppendTick(ts, idx, kk)
	}
	return l
}

// Materialize returns the nested [][]Transfer representation — the
// historical in-memory form, used by tests to prove the columnar log
// round-trips and by small-scale debugging output.
func (l *Log) Materialize() [][]Transfer {
	out := make([][]Transfer, l.Ticks())
	for t := range out {
		out[t] = l.AppendTickTransfers(t, nil)
	}
	return out
}

// MaterializeDrops returns the nested per-tick drop indices and (for
// kinded logs) kinds, mirroring the historical LostTrace/LostKindTrace
// shape: one row per tick, empty rows for tick without drops.
func (l *Log) MaterializeDrops() ([][]int, [][]uint8) {
	drops := make([][]int, l.Ticks())
	var kinds [][]uint8
	if l.kinded {
		kinds = make([][]uint8, l.Ticks())
	}
	var idx []int32
	var kk []uint8
	for t := range drops {
		idx, kk = l.AppendTickDrops(t, idx[:0], kk[:0])
		if len(idx) > 0 {
			row := make([]int, len(idx))
			for j, v := range idx {
				row[j] = int(v)
			}
			drops[t] = row
		}
		if l.kinded && len(kk) > 0 {
			kinds[t] = append([]uint8(nil), kk...)
		}
	}
	return drops, kinds
}
