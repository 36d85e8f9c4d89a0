package trace

import (
	"encoding/binary"
	"math/bits"
)

// Frame geometry. Sealed frames hold exactly frameLen transfers; the
// open tail holds the (< frameLen) most recent appends as raw uint32
// columns, so an append touches the codec only when it fills a frame.
const (
	frameShift = 16
	frameLen   = 1 << frameShift
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

// Cols selects per-transfer columns for a Win or a Cursor.
type Cols uint8

// The three per-transfer columns.
const (
	ColFrom Cols = 1 << iota
	ColTo
	ColBlock

	// AllCols selects every column; it is what a zero Win reads.
	AllCols = ColFrom | ColTo | ColBlock
)

// Win is a reusable decode window over a Log: the columns of one sealed
// frame that its reader asks for, unpacked. The zero value is ready and
// reads all three columns; Only narrows it. A column's backing array is
// allocated on its first decode, so consumers of small (never-sealed)
// logs pay nothing. Each concurrent reader owns its Win — a Log is
// read-only shared state during audits, the windows are the per-worker
// scratch.
type Win struct {
	idx  int         // decoded frame index; meaningful when have != 0
	want Cols        // columns the reader asks for; 0 reads all
	have Cols        // columns of frame idx decoded in col
	col  [3][]uint32 // from, to, block
}

// Only restricts w to the columns in cols: Window decodes only those and
// returns nil for the others.
func (w *Win) Only(cols Cols) { w.want = cols }

func (w *Win) cols() Cols {
	if w.want == 0 {
		return AllCols
	}
	return w.want
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
// (1..32), LSB-first. Each v>>shift must fit in w bits. It flushes
// 32 bits at a time; the tail flushes byte by byte.
func appendPacked(dst []byte, vals []uint32, shift, w uint) []byte {
	var acc uint64
	var nb uint
	for _, v := range vals {
		acc |= uint64(v>>shift) << nb
		nb += w
		if nb >= 32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
			acc >>= 32
			nb -= 32
		}
	}
	for ; nb > 0; nb -= min(nb, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// groupBytes is the span a group's loads may touch: eight w-bit values
// fill exactly w ≤ 32 bytes, and a group's last 64-bit load starts at
// most 7w/8 ≤ 28 bytes in.
const groupBytes = 40

// pairMaxWidth is the widest w at which one 64-bit load, shifted by up
// to 7 bits, still holds two whole values.
const pairMaxWidth = 28

// unpack decodes count w-bit values (w in 1..32) packed LSB-first in
// src, which holds at least (count·w+7)/8 bytes, into dst.
//
// Eight values fill exactly w bytes, so the kernel works a group at a
// time, each group from a few 64-bit loads at fixed offsets from its
// start: four loads of two values each up to pairMaxWidth, eight loads
// of one above it. The last groups, whose loads would overrun src, are
// copied into a zero-padded buffer and decoded from there.
func unpack(dst []uint32, src []byte, count int, w uint) {
	mask := uint64(1)<<w - 1
	i, p := 0, 0
	if w <= pairMaxWidth {
		for ; i+8 <= count && p+groupBytes <= len(src); i, p = i+8, p+int(w) {
			d, g := (*[8]uint32)(dst[i:]), (*[groupBytes]byte)(src[p:])
			x := binary.LittleEndian.Uint64(g[0:])
			d[0], d[1] = uint32(x&mask), uint32(x>>w&mask)
			b := 2 * w
			x = binary.LittleEndian.Uint64(g[b>>3&31:]) >> (b & 7)
			d[2], d[3] = uint32(x&mask), uint32(x>>w&mask)
			b += 2 * w
			x = binary.LittleEndian.Uint64(g[b>>3&31:]) >> (b & 7)
			d[4], d[5] = uint32(x&mask), uint32(x>>w&mask)
			b += 2 * w
			x = binary.LittleEndian.Uint64(g[b>>3&31:]) >> (b & 7)
			d[6], d[7] = uint32(x&mask), uint32(x>>w&mask)
		}
	}
	for ; i+8 <= count && p+groupBytes <= len(src); i, p = i+8, p+int(w) {
		unpackSingles((*[8]uint32)(dst[i:]), (*[groupBytes]byte)(src[p:]), w, mask)
	}
	var g [groupBytes]byte
	var d [8]uint32
	for ; i < count; i, p = i+8, p+int(w) {
		clear(g[copy(g[:], src[p:]):])
		unpackSingles(&d, &g, w, mask)
		copy(dst[i:count], d[:])
	}
}

// unpackSingles decodes the group in g's first w bytes into d, one
// value per load; it handles every width.
func unpackSingles(d *[8]uint32, g *[groupBytes]byte, w uint, mask uint64) {
	for k := range uint(8) {
		b := k * w
		d[k] = uint32(binary.LittleEndian.Uint64(g[b>>3&31:]) >> (b & 7) & mask)
	}
}

// unpackOr decodes count w-bit values like unpack and ORs each, shifted
// left by shift, into dst: the encSplit high-bits pass over the RLE'd
// low bits. It decodes 256 values at a time, a whole number of bytes,
// into a buffer.
func unpackOr(dst []uint32, src []byte, count int, shift, w uint) {
	var buf [256]uint32
	for i := 0; i < count; i += len(buf) {
		hi := buf[:min(len(buf), count-i)]
		unpack(hi, src[i/8*int(w):], len(hi), w)
		lo := dst[i : i+len(hi)]
		for j, v := range hi {
			lo[j] |= v << (shift & 31)
		}
	}
}

// encodeCol appends the cheapest encoding of vals (at least one entry;
// exactly frameLen when sealing) to s.buf. Costs are compared with a
// strict < in the order raw, delta, split lb = 1..4, so the first
// cheapest mode wins a tie.
//
// One pass over vals gathers everything the costs need: the OR of the
// values (its bit length is bits(max)), the zigzag deltas and their OR,
// and, per split width lb, the number of run boundaries of the low lb
// bits, counted without branches. A split width's exact cost also needs
// each run's uvarint length, which takes a scan of its own; that scan
// is skipped when even a two-byte header per run could not beat the
// best cost so far, since every run costs at least two bytes.
func (s *encScratch) encodeCol(vals []uint32) {
	n := len(vals)
	delta := s.delta[:n-1]
	prev := vals[0]
	orV, orD := prev, uint32(0)
	var bnd [5]int // bnd[lb]: i with vals[i]&m != vals[i-1]&m, m = 1<<lb - 1
	for i, v := range vals[1:] {
		orV |= v
		d := int32(v - prev)
		z := uint32(d<<1) ^ uint32(d>>31)
		delta[i] = z
		orD |= z
		x := v ^ prev
		bnd[1] += int(x & 1)
		bnd[2] += int((x&3 + 3) >> 2)
		bnd[3] += int((x&7 + 7) >> 3)
		bnd[4] += int((x&15 + 15) >> 4)
		prev = v
	}
	if orD == 0 {
		s.buf = append(s.buf, encConst)
		s.buf = appendUvarint(s.buf, uint64(vals[0]))
		return
	}
	rawW := uint(bits.Len32(orV))
	bestCost := 2 + (n*int(rawW)+7)/8
	bestMode, bestS := encRaw, uint(0)

	dW := uint(bits.Len32(orD))
	if cost := 2 + uvarintLen(uint64(vals[0])) + ((n-1)*int(dW)+7)/8; cost < bestCost {
		bestCost, bestMode = cost, encDelta
	}

	for lb := uint(1); lb <= 4; lb++ {
		runs := bnd[lb] + 1
		hiW := uint(bits.Len32(orV >> lb))
		fixed := 3 + uvarintLen(uint64(runs)) + (n*int(hiW)+7)/8
		if fixed+2*runs >= bestCost {
			continue
		}
		if cost := fixed + splitHeaders(vals, lb); cost < bestCost {
			bestCost, bestMode, bestS = cost, encSplit, lb
		}
	}

	switch bestMode {
	case encRaw:
		s.buf = append(s.buf, encRaw, byte(rawW))
		s.buf = appendPacked(s.buf, vals, 0, rawW)
	case encDelta:
		s.buf = append(s.buf, encDelta, byte(dW))
		s.buf = appendUvarint(s.buf, uint64(vals[0]))
		s.buf = appendPacked(s.buf, delta, 0, dW)
	case encSplit:
		lb := bestS
		mask := uint32(1)<<lb - 1
		hiW := uint(bits.Len32(orV >> lb))
		s.buf = append(s.buf, encSplit, byte(lb), byte(hiW))
		s.buf = appendUvarint(s.buf, uint64(bnd[lb]+1))
		rp, rl := vals[0]&mask, 1
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

// splitHeaders returns the bytes the run headers of vals' low lb bits
// take in encSplit: a value byte and a uvarint length per run.
func splitHeaders(vals []uint32, lb uint) int {
	mask := uint32(1)<<lb - 1
	hdr := 0
	rp, rl := vals[0]&mask, 1
	for _, v := range vals[1:] {
		if lv := v & mask; lv == rp {
			rl++
		} else {
			hdr += 1 + uvarintLen(uint64(rl))
			rp, rl = lv, 1
		}
	}
	return hdr + 1 + uvarintLen(uint64(rl))
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
		unpack(dst, buf[pos:pos+need], count, w)
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
		unpack(dst[1:], buf[pos:pos+need], count-1, w)
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
			run := dst[at : at+int(rl)]
			for j := range run {
				run[j] = lo
			}
			at += int(rl)
		}
		if at != count {
			return 0, corruptf("trace: split column runs cover %d of %d entries", at, count)
		}
		if hiW > 0 {
			need := (count*int(hiW) + 7) / 8
			if len(buf)-pos < need {
				return 0, corruptf("trace: split column needs %d high bytes, has %d", need, len(buf)-pos)
			}
			unpackOr(dst, buf[pos:pos+need], count, lb, hiW)
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

// sealedLen returns the number of transfers held in sealed frames.
func (l *Log) sealedLen() int { return len(l.frames) << frameShift }

// Window positions w over global transfer index i and returns direct
// decoded column views plus the window's [base, end) global span:
// entry j of the returned slices is transfer base+j. Columns w does not
// ask for (Win.Only) come back nil. For indices in the open tail the
// views alias the raw tail columns. The views are valid until w is
// repositioned or the Log is mutated. Concurrent readers must use
// distinct Wins; the Log itself is never written.
//
// Window is the one place a sealed frame is decoded. The data was
// either produced by sealOpen or validated by Restore, so a decode
// error here is impossible without unsafe mutation; it panics rather
// than propagates.
func (l *Log) Window(w *Win, i int) (from, to, block []uint32, base, end int) {
	want := w.cols()
	var cols [3][]uint32
	if s := l.sealedLen(); i >= s {
		cols = [3][]uint32{l.openFrom, l.openTo, l.openBlock}
		base, end = s, s+len(l.openFrom)
	} else {
		f := i >> frameShift
		if w.idx != f {
			w.idx, w.have = f, 0
		}
		if miss := want &^ w.have; miss != 0 {
			fr := &l.frames[f]
			for c := range w.col {
				if miss&(1<<c) == 0 {
					continue
				}
				if w.col[c] == nil {
					w.col[c] = make([]uint32, frameLen)
				}
				if _, err := decodeCol(w.col[c], fr.data[fr.off[c]:], frameLen); err != nil {
					panic("trace: sealed frame no longer decodes: " + err.Error())
				}
			}
			w.have |= miss
		}
		cols = w.col
		base, end = f<<frameShift, (f+1)<<frameShift
	}
	for c := range cols {
		if want&(1<<c) == 0 {
			cols[c] = nil
		}
	}
	return cols[0], cols[1], cols[2], base, end
}
