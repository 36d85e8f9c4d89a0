package trace

import (
	"encoding/binary"
	"math/bits"
)

// Frame geometry. Sealed frames hold exactly frameLen transfers; the
// open tail holds the (< frameLen) most recent appends as raw uint32
// columns so the tick hot path never touches the codec.
const (
	frameShift = 16
	frameLen   = 1 << frameShift
	frameMask  = frameLen - 1
)

// Per-column encoding modes inside a sealed frame. Each column of a
// frame independently picks the cheapest of:
//
//	encConst  every entry equal: one uvarint
//	encRaw    fixed-width bitpack at bits(max)
//	encDelta  first value uvarint + zigzag deltas bitpacked
//	encSplit  low s∈[1,4] bits run-length encoded + high bits bitpacked
//
// encSplit is what makes the ≤5 B/transfer budget at n=10⁵: the
// sharded schedulers commit each lane's pairings as contiguous
// segments, so one endpoint column has long runs of constant low-3
// bits (the lane residue) that RLE collapses while only the high
// bits pay for bitpacking.
const (
	encConst uint8 = iota
	encRaw
	encDelta
	encSplit
)

// frame is one sealed block of frameLen transfers: the three columns
// encoded back to back in data, with off locating each column's start.
type frame struct {
	data []byte
	off  [3]uint32
}

// Win is a reusable decode window over a Log: the three columns of one
// sealed frame, unpacked. The zero value is ready; backing arrays are
// allocated on first use, so consumers of small (never-sealed) logs pay
// nothing. Each concurrent reader owns its Win — a Log is read-only
// shared state during audits, the windows are the per-worker scratch.
type Win struct {
	idx             int // decoded frame index; valid only when from != nil
	from, to, block []uint32
}

func (w *Win) ensure() {
	if w.from == nil {
		w.idx = -1
		w.from = make([]uint32, frameLen)
		w.to = make([]uint32, frameLen)
		w.block = make([]uint32, frameLen)
	}
}

func (w *Win) invalidate() {
	if w.from != nil {
		w.idx = -1
	}
}

// encScratch is the seal-time workspace: the frame assembly buffer and
// the delta column. Allocated once, lazily, at the first seal; sized
// for the worst case up front so steady-state seals cost exactly one
// allocation (the sealed frame's exact-size data copy).
type encScratch struct {
	buf   []byte
	delta []uint32
}

func newEncScratch() *encScratch {
	return &encScratch{
		// 3 columns × (header + 32-bit worst-case bitpack).
		buf:   make([]byte, 0, 3*(16+4*frameLen)),
		delta: make([]uint32, frameLen),
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendPacked bitpacks (v >> shift) for every v in vals at width w
// (1..32), LSB-first.
func appendPacked(dst []byte, vals []uint32, shift, w uint) []byte {
	var acc uint64
	var nb uint
	for _, v := range vals {
		acc |= uint64(v>>shift) << nb
		nb += w
		for nb >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nb -= 8
		}
	}
	if nb > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// unpackInto decodes count w-bit values from src. When or is false it
// stores v<<shift into dst; when or is true it ORs v<<shift into the
// existing entries (the encSplit high-bits pass over RLE'd lows).
func unpackInto(dst []uint32, src []byte, count int, shift, w uint, or bool) {
	mask := uint64(1)<<w - 1
	bitPos := 0
	for i := 0; i < count; i++ {
		byteOff := bitPos >> 3
		sh := uint(bitPos & 7)
		var chunk uint64
		if byteOff+8 <= len(src) {
			chunk = binary.LittleEndian.Uint64(src[byteOff:])
		} else {
			for k := len(src) - 1; k >= byteOff; k-- {
				chunk = chunk<<8 | uint64(src[k])
			}
		}
		v := uint32((chunk >> sh) & mask)
		if or {
			dst[i] |= v << shift
		} else {
			dst[i] = v << shift
		}
		bitPos += int(w)
	}
}

// encodeCol appends the cheapest encoding of vals (exactly frameLen
// entries) to s.buf.
func (s *encScratch) encodeCol(vals []uint32) {
	n := len(vals)
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn == mx {
		s.buf = append(s.buf, encConst)
		s.buf = appendUvarint(s.buf, uint64(mx))
		return
	}
	rawW := uint(bits.Len32(mx))
	bestCost := 2 + (n*int(rawW)+7)/8
	bestMode, bestS := encRaw, uint(0)

	// Delta: zigzag the successive differences.
	var maxd uint32
	prev := vals[0]
	for i := 1; i < n; i++ {
		d := int32(vals[i] - prev)
		prev = vals[i]
		z := uint32(d<<1) ^ uint32(d>>31)
		s.delta[i-1] = z
		if z > maxd {
			maxd = z
		}
	}
	if dW := uint(bits.Len32(maxd)); dW > 0 {
		cost := 2 + uvarintLen(uint64(vals[0])) + ((n-1)*int(dW)+7)/8
		if cost < bestCost {
			bestCost, bestMode = cost, encDelta
		}
	}

	// Split: RLE the low s bits, bitpack the rest.
	for lb := uint(1); lb <= 4; lb++ {
		mask := uint32(1)<<lb - 1
		runs, hdr := 0, 0
		rp, rl := vals[0]&mask, 1
		for _, v := range vals[1:] {
			if lv := v & mask; lv == rp {
				rl++
			} else {
				runs++
				hdr += 1 + uvarintLen(uint64(rl))
				rp, rl = lv, 1
			}
		}
		runs++
		hdr += 1 + uvarintLen(uint64(rl))
		hiW := uint(bits.Len32(mx >> lb))
		cost := 3 + uvarintLen(uint64(runs)) + hdr + (n*int(hiW)+7)/8
		if cost < bestCost {
			bestCost, bestMode, bestS = cost, encSplit, lb
		}
	}

	switch bestMode {
	case encRaw:
		s.buf = append(s.buf, encRaw, byte(rawW))
		s.buf = appendPacked(s.buf, vals, 0, rawW)
	case encDelta:
		dW := uint(bits.Len32(maxd))
		s.buf = append(s.buf, encDelta, byte(dW))
		s.buf = appendUvarint(s.buf, uint64(vals[0]))
		s.buf = appendPacked(s.buf, s.delta[:n-1], 0, dW)
	case encSplit:
		lb := bestS
		mask := uint32(1)<<lb - 1
		hiW := uint(bits.Len32(mx >> lb))
		s.buf = append(s.buf, encSplit, byte(lb), byte(hiW))
		runs := 0
		rp, rl := vals[0]&mask, 1
		for _, v := range vals[1:] {
			if lv := v & mask; lv == rp {
				rl++
			} else {
				runs++
				rp, rl = lv, 1
			}
		}
		runs++
		s.buf = appendUvarint(s.buf, uint64(runs))
		rp, rl = vals[0]&mask, 1
		for _, v := range vals[1:] {
			if lv := v & mask; lv == rp {
				rl++
			} else {
				s.buf = append(s.buf, byte(rp))
				s.buf = appendUvarint(s.buf, uint64(rl))
				rp, rl = lv, 1
			}
		}
		s.buf = append(s.buf, byte(rp))
		s.buf = appendUvarint(s.buf, uint64(rl))
		if hiW > 0 {
			s.buf = appendPacked(s.buf, vals, lb, hiW)
		}
	}
}

// decodeCol decodes exactly count values from buf into dst, returning
// the number of bytes consumed. Every structural defect — unknown
// mode, zero or oversized width, truncated varint or bitpack tail, RLE
// runs that do not sum to the frame size — yields a corrupt error, so
// hostile snapshot bytes can never silently misdecode.
func decodeCol(dst []uint32, buf []byte, count int) (int, error) {
	if len(buf) == 0 {
		return 0, corruptf("trace: frame column truncated before mode byte")
	}
	mode := buf[0]
	pos := 1
	switch mode {
	case encConst:
		v, k := binary.Uvarint(buf[pos:])
		if k <= 0 || v > 1<<32-1 {
			return 0, corruptf("trace: bad const column value")
		}
		pos += k
		for i := 0; i < count; i++ {
			dst[i] = uint32(v)
		}
	case encRaw:
		if pos >= len(buf) {
			return 0, corruptf("trace: raw column truncated before width")
		}
		w := uint(buf[pos])
		pos++
		if w == 0 || w > 32 {
			return 0, corruptf("trace: raw column width %d out of range", w)
		}
		need := (count*int(w) + 7) / 8
		if len(buf)-pos < need {
			return 0, corruptf("trace: raw column needs %d bytes, has %d", need, len(buf)-pos)
		}
		unpackInto(dst[:count], buf[pos:pos+need], count, 0, w, false)
		pos += need
	case encDelta:
		if pos >= len(buf) {
			return 0, corruptf("trace: delta column truncated before width")
		}
		w := uint(buf[pos])
		pos++
		if w == 0 || w > 32 {
			return 0, corruptf("trace: delta column width %d out of range", w)
		}
		v0, k := binary.Uvarint(buf[pos:])
		if k <= 0 || v0 > 1<<32-1 {
			return 0, corruptf("trace: bad delta column base value")
		}
		pos += k
		need := ((count-1)*int(w) + 7) / 8
		if len(buf)-pos < need {
			return 0, corruptf("trace: delta column needs %d bytes, has %d", need, len(buf)-pos)
		}
		unpackInto(dst[1:count], buf[pos:pos+need], count-1, 0, w, false)
		pos += need
		cur := uint32(v0)
		dst[0] = cur
		for i := 1; i < count; i++ {
			z := dst[i]
			cur += (z >> 1) ^ -(z & 1)
			dst[i] = cur
		}
	case encSplit:
		if pos+2 > len(buf) {
			return 0, corruptf("trace: split column truncated before widths")
		}
		lb, hiW := uint(buf[pos]), uint(buf[pos+1])
		pos += 2
		if lb < 1 || lb > 4 || hiW > 32-lb {
			return 0, corruptf("trace: split column widths lo=%d hi=%d out of range", lb, hiW)
		}
		runs, k := binary.Uvarint(buf[pos:])
		if k <= 0 || runs < 1 || runs > uint64(count) {
			return 0, corruptf("trace: split column has bad run count")
		}
		pos += k
		at := 0
		for r := uint64(0); r < runs; r++ {
			if pos >= len(buf) {
				return 0, corruptf("trace: split column truncated in run %d", r)
			}
			lo := uint32(buf[pos])
			pos++
			if lo >= 1<<lb {
				return 0, corruptf("trace: split column run value %d exceeds %d bits", lo, lb)
			}
			rl, k := binary.Uvarint(buf[pos:])
			if k <= 0 || rl < 1 || rl > uint64(count-at) {
				return 0, corruptf("trace: split column run %d has bad length", r)
			}
			pos += k
			for j := uint64(0); j < rl; j++ {
				dst[at] = lo
				at++
			}
		}
		if at != count {
			return 0, corruptf("trace: split column runs cover %d of %d entries", at, count)
		}
		if hiW > 0 {
			need := (count*int(hiW) + 7) / 8
			if len(buf)-pos < need {
				return 0, corruptf("trace: split column needs %d high bytes, has %d", need, len(buf)-pos)
			}
			unpackInto(dst[:count], buf[pos:pos+need], count, lb, hiW, true)
			pos += need
		}
	default:
		return 0, corruptf("trace: unknown column encoding %d", mode)
	}
	return pos, nil
}

// sealOpen compresses the (exactly full) open columns into a new
// sealed frame.
func (l *Log) sealOpen() {
	if l.enc == nil {
		l.enc = newEncScratch()
	}
	s := l.enc
	s.buf = s.buf[:0]
	var off [3]uint32
	for c, col := range [3][]uint32{l.openFrom, l.openTo, l.openBlock} {
		off[c] = uint32(len(s.buf))
		s.encodeCol(col)
	}
	data := make([]byte, len(s.buf))
	copy(data, s.buf)
	l.frames = append(l.frames, frame{data: data, off: off})
	l.openFrom = l.openFrom[:0]
	l.openTo = l.openTo[:0]
	l.openBlock = l.openBlock[:0]
}

// decodeFrame unpacks sealed frame f into w. The data was either
// produced by sealOpen or validated by Restore, so decode errors here
// are impossible without unsafe mutation; they panic rather than
// propagate.
func (l *Log) decodeFrame(f int, w *Win) {
	w.ensure()
	fr := &l.frames[f]
	for c, dst := range [3][]uint32{w.from, w.to, w.block} {
		if _, err := decodeCol(dst, fr.data[fr.off[c]:], frameLen); err != nil {
			panic("trace: sealed frame no longer decodes: " + err.Error())
		}
	}
	w.idx = f
}

// reencodeFrame replaces sealed frame f's data with the (modified)
// columns in w. Only the doctoring helpers (Set, TruncateTicks) use it.
func (l *Log) reencodeFrame(f int, w *Win) {
	if l.enc == nil {
		l.enc = newEncScratch()
	}
	s := l.enc
	s.buf = s.buf[:0]
	var off [3]uint32
	for c, col := range [3][]uint32{w.from, w.to, w.block} {
		off[c] = uint32(len(s.buf))
		s.encodeCol(col)
	}
	data := make([]byte, len(s.buf))
	copy(data, s.buf)
	l.frames[f] = frame{data: data, off: off}
}

// FrameOf returns the index of the frame that holds transfer i. A
// reader that keeps several Wins open picks one per frame with it.
func FrameOf(i int) int { return i >> frameShift }

// sealedLen returns the number of transfers held in sealed frames.
func (l *Log) sealedLen() int { return len(l.frames) << frameShift }

// Window positions w over global transfer index i and returns direct
// decoded column views plus the window's [base, end) global span:
// entry j of the returned slices is transfer base+j. For indices in
// the open tail the views alias the raw tail columns. The views are
// valid until w is repositioned or the Log is mutated. Concurrent
// readers must use distinct Wins; the Log itself is never written.
func (l *Log) Window(w *Win, i int) (from, to, block []uint32, base, end int) {
	if s := l.sealedLen(); i >= s {
		return l.openFrom, l.openTo, l.openBlock, s, s + len(l.openFrom)
	}
	f := i >> frameShift
	w.ensure()
	if w.idx != f {
		l.decodeFrame(f, w)
	}
	return w.from, w.to, w.block, f << frameShift, (f + 1) << frameShift
}
