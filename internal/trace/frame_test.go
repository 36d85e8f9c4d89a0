package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"barterdist/internal/checkpoint"
)

// buildBig appends enough transfers to seal several frames. The value
// streams mix the shapes the encoder targets: lane-structured senders
// (constant low-3-bit runs, as the sharded schedulers emit), dense
// random receivers, a small block alphabet, and occasional negative
// ids (the doctored-trace bijection). Returns the log and the oracle.
func buildBig(t *testing.T, transfers int, kinded bool) (*Log, []Transfer, [][]int32, [][]uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	l := New(kinded)
	l.Reserve(transfers, transfers/1000+2, transfers/100)
	var oracle []Transfer
	var dropIdx [][]int32
	var dropKinds [][]uint8
	var ts []Transfer
	for len(oracle) < transfers {
		ts = ts[:0]
		tickLen := 500 + rng.Intn(1500)
		lane := rng.Intn(8)
		for i := 0; i < tickLen; i++ {
			if rng.Intn(64) == 0 {
				lane = rng.Intn(8) // next lane segment
			}
			from := int32(lane + 8*rng.Intn(12500))
			if rng.Intn(10000) == 0 {
				from = -from // negative ids must survive
			}
			ts = append(ts, Transfer{
				From:  from,
				To:    int32(rng.Intn(100000)),
				Block: int32(rng.Intn(64)),
			})
		}
		var di []int32
		var dk []uint8
		for i := 0; i < tickLen; i++ {
			if rng.Intn(50) == 0 {
				di = append(di, int32(i))
				if kinded {
					dk = append(dk, uint8(rng.Intn(NumKinds)))
				}
			}
		}
		l.AppendTick(ts, di, dk)
		oracle = append(oracle, ts...)
		dropIdx = append(dropIdx, append([]int32(nil), di...))
		dropKinds = append(dropKinds, append([]uint8(nil), dk...))
	}
	return l, oracle, dropIdx, dropKinds
}

// TestFrameSealRoundTrip drives the full stack across several sealed
// frames: Materialize, Cursor, Window, Snapshot/Restore, and
// append-after-restore byte equality.
func TestFrameSealRoundTrip(t *testing.T) {
	const total = 3*frameLen + 12345
	l, oracle, dropIdx, dropKinds := buildBig(t, total, true)
	if l.Len() < total || len(l.frames) < 3 {
		t.Fatalf("log holds %d transfers in %d frames; want ≥%d in ≥3", l.Len(), len(l.frames), total)
	}
	// Materialize against the oracle.
	if got := flatten(l); !reflect.DeepEqual(got, oracle) {
		t.Fatal("materialized sealed log differs from the oracle")
	}
	// Cursor stream against the oracle, drops included.
	c := l.Cursor()
	i := 0
	for tick := 0; c.NextTick(); tick++ {
		dropAt := map[int]uint8{}
		for j, d := range dropIdx[tick] {
			dropAt[int(d)] = dropKinds[tick][j]
		}
		eachTransfer(c, func(j int, tr Transfer, s Span) {
			if tr != oracle[i] {
				t.Fatalf("cursor at %d = %v, want %v", i, tr, oracle[i])
			}
			k, dropped := dropAt[j]
			if s.Dropped != dropped || (dropped && s.Kind != k) {
				t.Fatalf("cursor drop state at %d: dropped=%v kind=%d, want %v/%d",
					i, s.Dropped, s.Kind, dropped, k)
			}
			i++
		})
	}
	if i != len(oracle) {
		t.Fatalf("cursor visited %d transfers, want %d", i, len(oracle))
	}
	// Window sweep against the oracle.
	var w Win
	for i := 0; i < l.Len(); {
		from, to, block, base, end := l.Window(&w, i)
		for ; i < end; i++ {
			got := Transfer{From: int32(from[i-base]), To: int32(to[i-base]), Block: int32(block[i-base])}
			if got != oracle[i] {
				t.Fatalf("window at %d = %v, want %v", i, got, oracle[i])
			}
		}
	}
	// Snapshot → Restore → identical stream and identical re-snapshot,
	// then identical appends.
	data := snapshotBytes(l)
	got, err := Restore(checkpoint.NewDecoder(data))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if string(snapshotBytes(got)) != string(data) {
		t.Fatal("snapshot of restored log differs")
	}
	more := []Transfer{{From: 5, To: 6, Block: 7}}
	l.AppendTick(more, []int32{0}, []uint8{KindRefused})
	got.AppendTick(more, []int32{0}, []uint8{KindRefused})
	if string(snapshotBytes(l)) != string(snapshotBytes(got)) {
		t.Fatal("append-after-restore diverged across a sealed log")
	}
}

// TestFrameCompressionRatio pins the headline: lane-structured traffic
// at n=10⁵-scale ids compresses below 5 B/transfer, sealed frames
// included, against 12 B/transfer for the flat layout.
func TestFrameCompressionRatio(t *testing.T) {
	const total = 4 * frameLen
	rng := rand.New(rand.NewSource(9))
	l := New(false)
	l.Reserve(total, total/2000+2, 0)
	var ts []Transfer
	for l.Len() < total {
		ts = ts[:0]
		lane := 0
		for i := 0; i < 2000; i++ {
			if rng.Intn(300) == 0 {
				lane = rng.Intn(8)
			}
			ts = append(ts, Transfer{
				From:  int32(lane + 8*rng.Intn(12500)),
				To:    int32(rng.Intn(100000)),
				Block: int32(rng.Intn(64)),
			})
		}
		l.AppendTick(ts, nil, nil)
	}
	l.Compact()
	perTransfer := float64(l.MemSize()) / float64(l.Len())
	if perTransfer > 5.0 {
		t.Fatalf("compressed footprint = %.2f B/transfer, want ≤ 5", perTransfer)
	}
	t.Logf("footprint: %.2f B/transfer over %d transfers (%d sealed frames)",
		perTransfer, l.Len(), len(l.frames))
}

// legacyBytes encodes the pre-compression snapshot layout for the
// given nested trace, byte for byte as the old Snapshot wrote it.
func legacyBytes(ticks [][]Transfer, drops [][]int, kinds [][]uint8, kinded bool) []byte {
	var from, to, block, tickEnd, dropPos, dropTickEnd []uint32
	var dropKind []uint8
	kindLen := 0
	for t, ts := range ticks {
		base := uint32(len(from))
		for _, tr := range ts {
			from = append(from, uint32(tr.From))
			to = append(to, uint32(tr.To))
			block = append(block, uint32(tr.Block))
		}
		tickEnd = append(tickEnd, uint32(len(from)))
		if t < len(drops) {
			for j, d := range drops[t] {
				dropPos = append(dropPos, base+uint32(d))
				if kinded {
					k := uint8(KindFault)
					if t < len(kinds) && j < len(kinds[t]) {
						k = kinds[t][j]
					}
					if kindLen%2 == 0 {
						dropKind = append(dropKind, k&0x0f)
					} else {
						dropKind[kindLen/2] |= (k & 0x0f) << 4
					}
					kindLen++
				}
			}
		}
		dropTickEnd = append(dropTickEnd, uint32(len(dropPos)))
	}
	e := checkpoint.NewEncoder(256)
	e.Bool(kinded)
	e.Uint32s(from)
	e.Uint32s(to)
	e.Uint32s(block)
	e.Uint32s(tickEnd)
	e.Uint32s(dropPos)
	e.Bytes8(dropKind)
	e.Int(kindLen)
	e.Uint32s(dropTickEnd)
	return e.Bytes()
}

// TestRestoreLegacyLayout proves checkpoints written before the frame
// compression still restore, including ones large enough to re-seal
// into multiple frames, and stream identically to a natively built log.
func TestRestoreLegacyLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kinded := range []bool{false, true} {
		trs, drops, kinds := randomNested(rng, 12, kinded)
		want := FromTicks(trs, drops, kinds, kinded)
		got, err := Restore(checkpoint.NewDecoder(legacyBytes(trs, drops, kinds, kinded)))
		if err != nil {
			t.Fatalf("kinded=%v legacy Restore: %v", kinded, err)
		}
		if string(snapshotBytes(got)) != string(snapshotBytes(want)) {
			t.Fatalf("kinded=%v legacy restore does not re-encode to the native v2 form", kinded)
		}
	}
	// A legacy payload spanning multiple frames re-seals on restore.
	big := [][]Transfer{{}}
	for i := 0; i < frameLen+1000; i++ {
		big[0] = append(big[0], Transfer{From: int32(i % 977), To: int32(i % 499), Block: int32(i % 64)})
	}
	got, err := Restore(checkpoint.NewDecoder(legacyBytes(big, nil, nil, false)))
	if err != nil {
		t.Fatalf("big legacy Restore: %v", err)
	}
	if len(got.frames) != 1 || got.Len() != frameLen+1000 {
		t.Fatalf("big legacy restore: %d frames, %d transfers", len(got.frames), got.Len())
	}
	if !reflect.DeepEqual(flatten(got), big[0]) {
		t.Fatal("big legacy restore does not read back its transfers")
	}
}

// TestFrameCorruptionRejected hits the decode validators one defect at
// a time: frame header bytes, truncated varint/bitpack tails, RLE runs
// that do not cover the frame, and tick-range metadata inconsistencies
// all must surface as ErrCorrupt, never a panic or a silent misdecode.
func TestFrameCorruptionRejected(t *testing.T) {
	l, _, _, _ := buildBig(t, frameLen+100, true)
	base := snapshotBytes(l)
	restore := func(b []byte) error {
		_, err := Restore(checkpoint.NewDecoder(b))
		return err
	}
	if err := restore(base); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Locate the first frame's data inside the snapshot: version byte,
	// kinded bool, i64 frame count, u32+u32 tick range, u64 length.
	hdr := 1 + 1 + 8 + 4 + 4
	frameStart := hdr + 8
	frameData := l.frames[0].data
	mutants := map[string]func(b []byte){
		"unknown column mode": func(b []byte) { b[frameStart] = 0xee },
		"zero bitpack width":  func(b []byte) { b[frameStart+int(l.frames[0].off[1])+1] = 0 },
		"width out of range":  func(b []byte) { b[frameStart+int(l.frames[0].off[1])+1] = 77 },
		"tick range metadata": func(b []byte) { b[hdr-8] ^= 0x01 },
	}
	for name, fn := range mutants {
		b := append([]byte(nil), base...)
		fn(b)
		if err := restore(b); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Truncated frame payload: shorten the frame's byte slice but keep
	// the declared length — the u64 length prefix now overruns, or the
	// column decode runs dry. Cut mid-frame at several depths.
	for _, cut := range []int{1, len(frameData) / 2, len(frameData) - 1} {
		b := append([]byte(nil), base[:frameStart+cut]...)
		if err := restore(b); err == nil {
			t.Errorf("truncation at frame byte %d restored successfully", cut)
		}
	}
	// Single-byte corruptions of the first frame's payload must either
	// restore to a structurally valid log or fail with ErrCorrupt —
	// never panic. (Value changes that keep the structure intact are
	// fine: the auditors, not the codec, judge semantics.) Probe the
	// headers densely and the packed payload at a stride.
	stride := len(frameData)/120 + 1
	for i := 0; i < len(frameData); i++ {
		if i > 64 && i%stride != 0 {
			continue
		}
		b := append([]byte(nil), base...)
		b[frameStart+i] ^= 0x2a
		if err := restore(b); err != nil && !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("frame byte %d corruption: non-corrupt error %v", i, err)
		}
	}
}

// TestDecodeColRejectsCorruptSplit corrupts a known split-encoded
// column at the byte level: run counts, run values, and run lengths
// that no longer cover the frame must all error, never misdecode.
func TestDecodeColRejectsCorruptSplit(t *testing.T) {
	vals := make([]uint32, frameLen)
	for i := range vals {
		vals[i] = uint32(i/997%8) + 8*uint32(i%12500)
	}
	s := newEncScratch()
	s.encodeCol(vals)
	if s.buf[0] != encSplit {
		t.Fatalf("fixture column encoded as mode %d, want split", s.buf[0])
	}
	dst := make([]uint32, frameLen)
	bad := 0
	for i := 0; i < len(s.buf) && i < 4096; i++ {
		b := append([]byte(nil), s.buf...)
		b[i] ^= 0x5b
		n, err := decodeCol(dst, b, frameLen)
		if err != nil {
			bad++
			continue
		}
		// A successful decode must have consumed a self-consistent
		// encoding; re-encoding the decoded values must round-trip.
		_ = n
	}
	if bad == 0 {
		t.Fatal("no byte corruption of a split column was ever rejected")
	}
}

// encodeColModeCases returns column generators that force each
// encoding mode.
func encodeColModeCases(rng *rand.Rand) map[string]func(i int) uint32 {
	return map[string]func(i int) uint32{
		"const":          func(int) uint32 { return 42 },
		"raw-random":     func(int) uint32 { return rng.Uint32() >> 12 },
		"raw-full-width": func(int) uint32 { return rng.Uint32() },
		"delta-ascending": func(i int) uint32 {
			return uint32(i)*3 + uint32(rng.Intn(2))
		},
		"delta-wrapping": func(i int) uint32 {
			return uint32(int32(-500 + i)) // crosses the int32 sign bit
		},
		"split-lanes": func(i int) uint32 {
			return uint32(i/997%8) + 8*uint32(rng.Intn(12500))
		},
		"split-tiny-hi": func(i int) uint32 { return uint32(i / 4096 % 16) },
	}
}

// TestEncodeColModes forces each encoding mode and round-trips it.
func TestEncodeColModes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, gen := range encodeColModeCases(rng) {
		vals := make([]uint32, frameLen)
		for i := range vals {
			vals[i] = gen(i)
		}
		buf := checkEncodeCol(t, name, vals)
		t.Logf("%s: mode %d, %d bytes (%.2f bits/value)", name, buf[0], len(buf),
			8*float64(len(buf))/frameLen)
	}
}

// referenceEncodeCol is the exhaustive column encoder the one-pass
// encodeCol replaced, kept as the oracle for which encoding a column
// gets: one scan for the range, one for the zigzag deltas, and an exact
// run-length scan per split width, with costs compared by a strict < in
// the order raw, delta, split lb = 1..4. It shares no code with
// encodeCol. It also returns each mode's cost in bytes, in that order
// (cost[0] raw, cost[1] delta, cost[1+lb] split), or nil for a constant
// column.
func referenceEncodeCol(vals []uint32) (buf []byte, cost []int) {
	n := len(vals)
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		mn = min(mn, v)
		mx = max(mx, v)
	}
	if mn == mx {
		return binary.AppendUvarint(append(buf, encConst), uint64(mx)), nil
	}
	rawW := uint(bits.Len32(mx))
	bestCost := 2 + (n*int(rawW)+7)/8
	bestMode, bestS := encRaw, uint(0)
	cost = append(cost, bestCost)

	delta := make([]uint32, n-1)
	var maxd uint32
	for i := 1; i < n; i++ {
		d := int32(vals[i] - vals[i-1])
		delta[i-1] = uint32(d<<1) ^ uint32(d>>31)
		maxd = max(maxd, delta[i-1])
	}
	varLen := func(v int) int { return len(binary.AppendUvarint(nil, uint64(v))) }
	dW := uint(bits.Len32(maxd))
	cost = append(cost, 2+varLen(int(vals[0]))+((n-1)*int(dW)+7)/8)
	if cost[1] < bestCost {
		bestCost, bestMode = cost[1], encDelta
	}

	// runsOf returns the (low value, length) runs of vals' low lb bits.
	runsOf := func(lb uint) (lows []byte, lens []int) {
		mask := uint32(1)<<lb - 1
		for i, v := range vals {
			if i > 0 && v&mask == vals[i-1]&mask {
				lens[len(lens)-1]++
				continue
			}
			lows = append(lows, byte(v&mask))
			lens = append(lens, 1)
		}
		return lows, lens
	}
	for lb := uint(1); lb <= 4; lb++ {
		_, lens := runsOf(lb)
		hdr := 0
		for _, rl := range lens {
			hdr += 1 + varLen(rl)
		}
		hiW := uint(bits.Len32(mx >> lb))
		cost = append(cost, 3+varLen(len(lens))+hdr+(n*int(hiW)+7)/8)
		if cost[1+lb] < bestCost {
			bestCost, bestMode, bestS = cost[1+lb], encSplit, lb
		}
	}

	// pack bitpacks (v >> shift) at width w, LSB-first, a byte at a time.
	pack := func(buf []byte, vals []uint32, shift, w uint) []byte {
		var acc uint64
		var nb uint
		for _, v := range vals {
			acc |= uint64(v>>shift) << nb
			for nb += w; nb >= 8; nb -= 8 {
				buf = append(buf, byte(acc))
				acc >>= 8
			}
		}
		if nb > 0 {
			buf = append(buf, byte(acc))
		}
		return buf
	}
	switch bestMode {
	case encRaw:
		buf = pack(append(buf, encRaw, byte(rawW)), vals, 0, rawW)
	case encDelta:
		buf = binary.AppendUvarint(append(buf, encDelta, byte(dW)), uint64(vals[0]))
		buf = pack(buf, delta, 0, dW)
	case encSplit:
		lb := bestS
		hiW := uint(bits.Len32(mx >> lb))
		lows, lens := runsOf(lb)
		buf = binary.AppendUvarint(append(buf, encSplit, byte(lb), byte(hiW)), uint64(len(lens)))
		for r, rl := range lens {
			buf = binary.AppendUvarint(append(buf, lows[r]), uint64(rl))
		}
		if hiW > 0 {
			buf = pack(buf, vals, lb, hiW)
		}
	}
	return buf, cost
}

// splitTie returns a column whose split widths 1 and 2 cost exactly
// the same. Bit 0 is constant, so width 1 has one run; bit 1 makes
// 4,097 runs at width 2: 4,096 of 15 entries and one of 4,096, whose
// two-byte length adds one header byte. Width 2's extra 8,197 header
// bytes then cancel the 8,192 bytes its one fewer high bit saves plus
// the run count's second uvarint byte. Random bits 2..11 make widths
// 3 and 4, and the delta and raw modes, dearer.
func splitTie(rng *rand.Rand) func(i int) uint32 {
	return func(i int) uint32 {
		return uint32(min(i/15, 4096)%2)<<1 | uint32(rng.Intn(1<<10))<<2 | 1<<11
	}
}

// checkEncodeCol asserts that encodeCol writes exactly the reference
// encoder's bytes for vals and that those bytes decode back to vals,
// consuming all of them. It returns the encoding.
func checkEncodeCol(t testing.TB, name string, vals []uint32) []byte {
	t.Helper()
	s := newEncScratch()
	s.encodeCol(vals)
	if want, _ := referenceEncodeCol(vals); !bytes.Equal(s.buf, want) {
		t.Fatalf("%s: encodeCol wrote %d bytes (mode %d), reference %d bytes (mode %d)",
			name, len(s.buf), s.buf[0], len(want), want[0])
	}
	dst := make([]uint32, len(vals))
	n, err := decodeCol(dst, s.buf, len(vals))
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if n != len(s.buf) {
		t.Fatalf("%s: decode consumed %d of %d bytes", name, n, len(s.buf))
	}
	for i := range vals {
		if dst[i] != vals[i] {
			t.Fatalf("%s: value %d = %d, want %d (mode %d)", name, i, dst[i], vals[i], s.buf[0])
		}
	}
	return s.buf
}

// TestEncodeColMatchesReference pins which encoding every column gets,
// not just that it round-trips: on columns built to sit at the
// estimator's edges, encodeCol's bytes must equal the exhaustive
// reference's.
func TestEncodeColMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tie := splitTie(rng)
	cases := map[string]func(i int) uint32{
		// Runs whose length crosses the one-, two- and three-byte
		// uvarint widths, under low bits that vary at several widths.
		"runs-127":   func(i int) uint32 { return uint32(i/127%16) | uint32(rng.Intn(4))<<4 },
		"runs-128":   func(i int) uint32 { return uint32(i/128%16) | uint32(rng.Intn(4))<<4 },
		"runs-200":   func(i int) uint32 { return uint32(i/200%3) + 4*uint32(rng.Intn(64)) },
		"runs-16383": func(i int) uint32 { return uint32(i/16383%2) + 2*uint32(rng.Intn(8)) },
		"runs-16384": func(i int) uint32 { return uint32(i/16384%4) + 4*uint32(rng.Intn(8)) },
		"runs-20000": func(i int) uint32 { return uint32(i/20000%16) + 16*uint32(i%7) },
		"one-run":    func(i int) uint32 { return 16 * uint32(rng.Intn(1000)) },
		"split-tie":  tie,
		// Bit 0 flips once, at an entry that is not a width-2 boundary:
		// width 1 gains a run and 4 header bytes, width 2 a run and 2, so
		// width 2 wins by 2 bytes with 4,098 runs. A pruning bound of
		// more than two bytes per run would skip the winner.
		"split-win-by-2": func(i int) uint32 { return tie(i) | uint32(i>>15) },
		// Low-bit runs at width 1 that shatter at width 2.
		"split-narrow": func(i int) uint32 { return uint32(i/300%2) | uint32(rng.Intn(2))<<1 | uint32(rng.Intn(256))<<2 },
		"alternating":  func(i int) uint32 { return uint32(i % 2) },
		"full-32":      func(int) uint32 { return rng.Uint32() | 1<<31 },
		"full-32-runs": func(i int) uint32 { return uint32(i/500%8) | (rng.Uint32()|1<<31)&^7 },
		"max-min":      func(i int) uint32 { return ^uint32(0) * uint32(i%2) },
		"delta-full":   func(i int) uint32 { return uint32(i) * 0x9E3779B9 },
	}
	for name, gen := range encodeColModeCases(rng) {
		cases[name] = gen
	}
	for name, gen := range cases {
		vals := make([]uint32, frameLen)
		for i := range vals {
			vals[i] = gen(i)
		}
		checkEncodeCol(t, name, vals)
	}
	// The two edge cases must sit on their edges, or they pin nothing.
	// In split-tie, split widths 1 and 2 cost the same and beat every
	// other mode, and the strict < keeps width 1. In split-win-by-2,
	// width 2 wins by 2 bytes.
	for _, tc := range []struct {
		name   string
		margin int // cost of width 1 minus cost of width 2
		lb     byte
	}{{"split-tie", 0, 1}, {"split-win-by-2", 2, 2}} {
		vals := make([]uint32, frameLen)
		for i := range vals {
			vals[i] = cases[tc.name](i)
		}
		buf, cost := referenceEncodeCol(vals)
		if cost[2]-cost[3] != tc.margin || buf[0] != encSplit || buf[1] != tc.lb || min(cost[0], cost[1], cost[4], cost[5]) <= cost[2] {
			t.Fatalf("%s column: costs %v, mode %d width %d; want split width %d, widths 1 and 2 %d bytes apart", tc.name, cost, buf[0], buf[1], tc.lb, tc.margin)
		}
	}
	// Short columns, down to one entry, take the same paths.
	for _, n := range []int{1, 2, 3, 7, 128, 129} {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(rng.Intn(40))
		}
		checkEncodeCol(t, "short", vals)
	}
}

// referenceDecodeCol is the column decoder the word-group unpack
// replaced, kept as the oracle for decodeCol: the same mode parsing and
// corruption checks, with every bitpacked value read by its own
// unaligned load (referenceUnpackInto).
func referenceDecodeCol(dst []uint32, buf []byte, count int) (int, error) {
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
		referenceUnpackInto(dst[:count], buf[pos:pos+need], count, 0, w, false)
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
		referenceUnpackInto(dst[1:count], buf[pos:pos+need], count-1, 0, w, false)
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
			referenceUnpackInto(dst[:count], buf[pos:pos+need], count, lb, hiW, true)
			pos += need
		}
	default:
		return 0, corruptf("trace: unknown column encoding %d", mode)
	}
	return pos, nil
}

// referenceUnpackInto decodes count w-bit values from src, one
// unaligned 64-bit load per value. When or is false it stores v<<shift
// into dst; when or is true it ORs v<<shift into the existing entries.
func referenceUnpackInto(dst []uint32, src []byte, count int, shift, w uint, or bool) {
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

// checkDecodeCol decodes buf as a count-entry column with decodeCol and
// with referenceDecodeCol, into destinations pre-filled with the same
// garbage, and requires the same error text, the same bytes consumed
// and, on success, the same destination slice — entries past count
// included, so neither may write beyond the column.
func checkDecodeCol(t testing.TB, name string, buf []byte, count int) error {
	t.Helper()
	got := make([]uint32, count+9)
	want := make([]uint32, count+9)
	for i := range got {
		got[i] = 0xdeadbeef ^ uint32(i)*0x9E3779B9
		want[i] = got[i]
	}
	n, err := decodeCol(got, buf, count)
	wn, werr := referenceDecodeCol(want, buf, count)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: decodeCol error %v, reference %v", name, err, werr)
	}
	if err != nil {
		return err
	}
	if n != wn {
		t.Fatalf("%s: decodeCol consumed %d bytes, reference %d", name, n, wn)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d of %d = %#x, reference %#x", name, i, count, got[i], want[i])
		}
	}
	return nil
}

// decodeCounts are the column lengths the decoder tests cover: each
// side of one and two eight-value groups, and a full frame and one
// short of it.
var decodeCounts = []int{1, 7, 8, 9, 15, 16, 17, frameLen - 1, frameLen}

// TestDecodeColMatchesReference builds raw, delta and split columns by
// hand at every bit width (split: every high width from 0, so the OR
// pass runs at every width) and every length in decodeCounts, and
// requires decodeCol to match the per-value reference decoder value
// for value, with trailing bytes after the column and with its last
// byte cut off.
func TestDecodeColMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	vals := make([]uint32, frameLen)
	check := func(name string, buf []byte, count int) {
		t.Helper()
		if err := checkDecodeCol(t, name, append(buf, 0xa5, 0x5a, 0xff), count); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkDecodeCol(t, name+" cut", buf[:len(buf)-1], count); err == nil {
			t.Fatalf("%s: decoded with its last byte cut", name)
		}
	}
	for w := uint(1); w <= 32; w++ {
		for _, count := range decodeCounts {
			for i := range vals[:count] {
				vals[i] = uint32(rng.Uint64() & (1<<w - 1))
			}
			vals[0] = uint32(1<<w - 1) // the width's top bit is set
			raw := appendPacked([]byte{encRaw, byte(w)}, vals[:count], 0, w)
			check(fmt.Sprintf("raw w=%d n=%d", w, count), raw, count)
			if count > 1 {
				delta := appendUvarint([]byte{encDelta, byte(w)}, uint64(rng.Uint32()))
				delta = appendPacked(delta, vals[1:count], 0, w)
				check(fmt.Sprintf("delta w=%d n=%d", w, count), delta, count)
			}
		}
	}
	for lb := uint(1); lb <= 4; lb++ {
		for hiW := uint(0); hiW <= 32-lb; hiW++ {
			for _, count := range decodeCounts {
				buf := appendUvarint([]byte{encSplit, byte(lb), byte(hiW)}, 0)
				runs := 0
				for at := 0; at < count; runs++ {
					lo, rl := uint32(rng.Intn(1<<lb)), 1+rng.Intn(min(count-at, 300))
					buf = append(buf, byte(lo))
					buf = appendUvarint(buf, uint64(rl))
					for j := 0; j < rl; j++ {
						vals[at+j] = lo | uint32(rng.Uint64()&(1<<hiW-1))<<lb
					}
					at += rl
				}
				// The run count was written as one byte; rewrite it.
				head := appendUvarint([]byte{encSplit, byte(lb), byte(hiW)}, uint64(runs))
				buf = append(head, buf[4:]...)
				if hiW > 0 {
					buf = appendPacked(buf, vals[:count], lb, hiW)
				}
				check(fmt.Sprintf("split lb=%d hi=%d n=%d", lb, hiW, count), buf, count)
			}
		}
	}
}

// FuzzDecodeCol feeds arbitrary bytes to decodeCol and to the
// per-value reference decoder. The first two bytes pick the column
// length (1 to frameLen); the rest is the column. Both must return the
// same error text and bytes consumed and, on success, the same values.
func FuzzDecodeCol(f *testing.F) {
	f.Add([]byte{0, 0, encConst, 7})
	f.Add([]byte{16, 0, encRaw, 5, 0xff, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11})
	f.Add([]byte{8, 0, encDelta, 3, 40, 0x91, 0x22, 0x7f})
	f.Add([]byte{9, 0, encSplit, 2, 3, 2, 1, 4, 3, 6, 0xaa, 0xbb, 0xcc, 0xdd})
	f.Add([]byte{0xff, 0xff, encRaw, 32})
	s := newEncScratch()
	col := make([]uint32, 300)
	for i := range col {
		col[i] = uint32(i/37%8) + 8*uint32(i*i%1000)
	}
	s.encodeCol(col)
	f.Add(append([]byte{byte(len(col) - 1), byte((len(col) - 1) >> 8)}, s.buf...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		count := 1 + int(binary.LittleEndian.Uint16(data))%frameLen
		checkDecodeCol(t, "fuzzed", data[2:], count)
	})
}
