package trace

import (
	"sort"

	"barterdist/internal/checkpoint"
)

// snapVersion tags the frame-compressed snapshot layout. The
// pre-compression layout wrote no version byte (its first byte was the
// kinded Bool, 0 or 1), so the tag starts at 2; Restore rejects the old
// layout as corrupt.
const snapVersion = 2

// Snapshot appends the log's full column state to enc: the sealed
// frames verbatim (each with its tick-range metadata), the raw open
// tail, and the tick/drop offset columns. Restore re-validates every
// structural invariant — including a full decode of every frame and a
// cross-check of the frame tick ranges against tickEnd — so a
// corrupted payload can never yield a Log whose cursors misbehave.
func (l *Log) Snapshot(enc *checkpoint.Encoder) {
	enc.U8(snapVersion)
	enc.Bool(l.kinded)
	enc.Int(len(l.frames))
	for f := range l.frames {
		first, last := l.frameTickRange(f)
		enc.U32(uint32(first))
		enc.U32(uint32(last))
		enc.Bytes8(l.frames[f].data)
	}
	enc.Uint32s(l.openFrom)
	enc.Uint32s(l.openTo)
	enc.Uint32s(l.openBlock)
	enc.Uint32s(l.tickEnd)
	enc.Uint32s(l.dropPos)
	enc.Bytes8(l.dropKind)
	enc.Int(l.kindLen)
	enc.Uint32s(l.dropTickEnd)
}

// frameTickRange returns the 0-based tick indices of frame f's first
// and last transfer — the per-frame metadata the snapshot records and
// Restore cross-checks.
func (l *Log) frameTickRange(f int) (first, last int) {
	return l.tickOf(f << frameShift), l.tickOf((f+1)<<frameShift - 1)
}

// tickOf returns the 0-based tick containing global transfer index i.
func (l *Log) tickOf(i int) int {
	return sort.Search(len(l.tickEnd), func(t int) bool { return int(l.tickEnd[t]) > i })
}

// Restore decodes a Log previously written by Snapshot in the
// frame-compressed v2 layout, validating the structural invariants
// AppendTick maintains:
//
//   - every frame decodes exactly, the open tail is shorter than a
//     frame and its columns have equal lengths, and the recorded
//     per-frame tick ranges match tickEnd
//   - tickEnd is monotone non-decreasing and ends exactly at Len
//   - dropPos is strictly ascending and every entry falls inside its
//     tick's transfer span
//   - dropTickEnd parallels tickEnd and ends exactly at len(dropPos)
//   - kinded logs carry exactly one valid kind nibble per drop
//
// Any violation, and any version other than v2, returns an error
// wrapping checkpoint.ErrCorrupt.
func Restore(dec *checkpoint.Decoder) (*Log, error) {
	version := dec.U8()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if version != snapVersion {
		return nil, corruptf("trace: unknown snapshot version %d", version)
	}
	l := &Log{kinded: dec.Bool()}
	nFrames := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if nFrames < 0 || nFrames > dec.Remaining() {
		return nil, corruptf("trace: snapshot claims %d frames in %d bytes", nFrames, dec.Remaining())
	}
	ranges := make([][2]uint32, nFrames)
	l.frames = make([]frame, nFrames)
	for f := 0; f < nFrames; f++ {
		ranges[f] = [2]uint32{dec.U32(), dec.U32()}
		l.frames[f] = frame{data: dec.Bytes8()}
	}
	l.openFrom = dec.Uint32s()
	l.openTo = dec.Uint32s()
	l.openBlock = dec.Uint32s()
	l.tickEnd = dec.Uint32s()
	l.dropPos = dec.Uint32s()
	l.dropKind = dec.Bytes8()
	l.kindLen = dec.Int()
	l.dropTickEnd = dec.Uint32s()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if len(l.openFrom) >= frameLen {
		return nil, corruptf("trace: open tail holds %d entries, frame size is %d", len(l.openFrom), frameLen)
	}
	if len(l.openTo) != len(l.openFrom) || len(l.openBlock) != len(l.openFrom) {
		return nil, corruptf("trace: open tail lengths differ: from=%d to=%d block=%d",
			len(l.openFrom), len(l.openTo), len(l.openBlock))
	}
	if err := l.validate(); err != nil {
		return nil, err
	}
	// Decode every frame completely: the column payloads must parse,
	// consume the frame's bytes exactly, and carry tick-range metadata
	// consistent with tickEnd.
	dst := make([]uint32, frameLen)
	for f := range l.frames {
		fr := &l.frames[f]
		pos := 0
		for c := range fr.off {
			fr.off[c] = uint32(pos)
			n, err := decodeCol(dst, fr.data[pos:], frameLen)
			if err != nil {
				return nil, corruptf("trace: frame %d column %d: %v", f, c, err)
			}
			pos += n
		}
		if pos != len(fr.data) {
			return nil, corruptf("trace: frame %d has %d trailing bytes", f, len(fr.data)-pos)
		}
		first, last := l.frameTickRange(f)
		if ranges[f][0] != uint32(first) || ranges[f][1] != uint32(last) {
			return nil, corruptf("trace: frame %d tick range metadata [%d,%d] disagrees with tick offsets [%d,%d]",
				f, ranges[f][0], ranges[f][1], first, last)
		}
	}
	return l, nil
}

// validate checks the tick/drop offset invariants. Frame payload
// validation happens in Restore.
func (l *Log) validate() error {
	fail := func(format string, args ...any) error {
		return corruptf("trace: "+format, args...)
	}
	n := l.Len()
	if len(l.dropTickEnd) != len(l.tickEnd) {
		return fail("dropTickEnd has %d ticks, tickEnd has %d",
			len(l.dropTickEnd), len(l.tickEnd))
	}
	var prev uint32
	for t, end := range l.tickEnd {
		if end < prev || int(end) > n {
			return fail("tickEnd[%d]=%d not monotone within %d transfers", t, end, n)
		}
		prev = end
	}
	if len(l.tickEnd) > 0 {
		if last := l.tickEnd[len(l.tickEnd)-1]; int(last) != n {
			return fail("last tickEnd %d != transfer count %d", last, n)
		}
	} else if n != 0 {
		return fail("%d transfers but no ticks", n)
	}
	prev = 0
	for t, end := range l.dropTickEnd {
		if end < prev || int(end) > len(l.dropPos) {
			return fail("dropTickEnd[%d]=%d not monotone within %d drops", t, end, len(l.dropPos))
		}
		prev = end
	}
	if len(l.dropTickEnd) > 0 {
		if last := l.dropTickEnd[len(l.dropTickEnd)-1]; int(last) != len(l.dropPos) {
			return fail("last dropTickEnd %d != drop count %d", last, len(l.dropPos))
		}
	} else if len(l.dropPos) != 0 {
		return fail("%d drops but no ticks", len(l.dropPos))
	}
	// Every drop must fall strictly inside its own tick's span, and
	// drops are strictly ascending overall.
	for t := range l.tickEnd {
		tickStart, tickEnd := l.TickSpan(t)
		ds, de := l.dropSpan(t)
		last := tickStart - 1
		for j := ds; j < de; j++ {
			pos := int(l.dropPos[j])
			if pos <= last || pos >= tickEnd {
				return fail("dropPos[%d]=%d outside tick %d span [%d,%d) or not ascending",
					j, pos, t, tickStart, tickEnd)
			}
			last = pos
		}
	}
	if l.kinded {
		if l.kindLen != len(l.dropPos) {
			return fail("kinded log has %d kinds for %d drops", l.kindLen, len(l.dropPos))
		}
		if len(l.dropKind) != (l.kindLen+1)/2 {
			return fail("dropKind has %d bytes for %d kinds", len(l.dropKind), l.kindLen)
		}
		for j := 0; j < l.kindLen; j++ {
			if int(l.kindAt(j)) >= NumKinds {
				return fail("drop %d has invalid kind %d", j, l.kindAt(j))
			}
		}
		if l.kindLen%2 == 1 && l.dropKind[l.kindLen/2]&0xf0 != 0 {
			return fail("stale high nibble after last kind")
		}
	} else {
		if l.kindLen != 0 || len(l.dropKind) != 0 {
			return fail("unkinded log carries %d kinds", l.kindLen)
		}
	}
	return nil
}

func corruptf(format string, args ...any) error {
	return checkpoint.Corruptf(format, args...)
}
