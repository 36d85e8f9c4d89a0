package trace

import (
	"encoding/binary"
	"testing"

	"barterdist/internal/checkpoint"
)

// sealedSeed builds a small-on-disk log that still crosses the sealed
// frame boundary: highly regular columns keep the compressed snapshot
// a few KiB while exercising every frame decode path under fuzzing.
func sealedSeed() *Log {
	l := New(true)
	ts := make([]Transfer, 4096)
	for t := 0; t < frameLen/len(ts)+2; t++ {
		for i := range ts {
			ts[i] = Transfer{
				From:  int32(i / 512 % 8),        // lane runs → split RLE
				To:    int32(t),                  // constant per tick → const
				Block: int32(frameLen - 3*i - t), // descending → delta
			}
		}
		l.AppendTick(ts, []int32{0, 7}, []uint8{KindFault, KindGarbage})
	}
	return l
}

// FuzzTraceCursor feeds arbitrary bytes to the trace Restore path and,
// when a Log decodes, drives both cursors over the whole log. The
// contract: never panic, and every decoded log satisfies the cursor
// invariants (transfer indices in range, drop counts consistent), so a
// corrupted snapshot can never produce a silently-wrong trace walk.
// The seeds cover the frame-compressed v2 layout, a first byte of the
// rejected pre-compression layout, and targeted frame corruptions:
// mangled headers, truncated varint/bitpack tails, inconsistent
// tick-range metadata.
func FuzzTraceCursor(f *testing.F) {
	f.Add([]byte{})
	f.Add(snapshotBytes(New(false)))
	f.Add(snapshotBytes(sampleLog(false)))
	f.Add(snapshotBytes(sampleLog(true)))
	mut := snapshotBytes(sampleLog(true))
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	// The pre-compression layout's first byte (its kinded Bool).
	old := snapshotBytes(sampleLog(true))
	old[0] = 1
	f.Add(old)
	// Frame-compressed seeds: pristine, corrupt header, corrupt
	// tick-range metadata, truncated mid-frame.
	sealed := snapshotBytes(sealedSeed())
	f.Add(sealed)
	hdr := append([]byte(nil), sealed...)
	hdr[1+1+8+4+4+8] = 0xee // first frame's first column mode byte
	f.Add(hdr)
	meta := append([]byte(nil), sealed...)
	meta[1+1+8] ^= 0x01 // first frame's firstTick metadata
	f.Add(meta)
	f.Add(sealed[:len(sealed)/3])

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Restore(checkpoint.NewDecoder(data))
		if err != nil {
			return
		}
		seenTransfers, seenDrops := 0, 0
		c := l.Cursor()
		for c.NextTick() {
			tlen := 0
			for c.NextSpan() {
				s := c.Span()
				if s.Index < 0 || s.Index+len(s.From) > c.TickLen() {
					t.Fatalf("span [%d, %d) outside tick of %d", s.Index, s.Index+len(s.From), c.TickLen())
				}
				if s.Index != tlen {
					t.Fatalf("span starts at %d after %d transfers", s.Index, tlen)
				}
				if s.Dropped {
					seenDrops++
					if len(s.From) != 1 {
						t.Fatalf("dropped span of %d transfers", len(s.From))
					}
					if int(s.Kind) >= NumKinds {
						t.Fatalf("invalid kind %d from cursor", s.Kind)
					}
				}
				tlen += len(s.From)
			}
			if tlen != c.TickLen() {
				t.Fatalf("cursor visited %d transfers in tick of %d", tlen, c.TickLen())
			}
			seenTransfers += tlen
		}
		if seenTransfers != l.Len() {
			t.Fatalf("cursor visited %d transfers, log has %d", seenTransfers, l.Len())
		}
		if seenDrops != l.Drops() {
			t.Fatalf("cursor saw %d drops, log has %d", seenDrops, l.Drops())
		}
		// The released view must visit a subset, skip only adversary
		// drops, and never panic.
		rc := l.ReleasedCursor()
		released := 0
		for rc.NextTick() {
			for rc.NextSpan() {
				if s := rc.Span(); s.Dropped && s.Kind >= KindRefused {
					t.Fatalf("released view yielded an adversary drop (kind %d)", s.Kind)
				}
				released += len(rc.Span().From)
			}
		}
		if released > seenTransfers {
			t.Fatalf("released view visited more (%d) than full view (%d)", released, seenTransfers)
		}
		// Materialization exercises the remaining accessors.
		l.Materialize()
		l.MaterializeDrops()
	})
}

// FuzzEncodeCol encodes a fuzzed column and requires the reference
// encoder's bytes and an exact round trip through decodeCol. The first
// byte sets how many times each value repeats (1 to 256, so run lengths
// cross the one-byte uvarint limit), the second how far every value is
// shifted right (narrow columns reach the split modes); the rest are
// little-endian uint32 values. The column is capped at frameLen entries.
func FuzzEncodeCol(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{127, 28, 0x10, 0, 0, 0x80, 0x21, 0, 0, 0x40, 0x13, 0, 0, 0})
	f.Add([]byte{200, 0, 3, 0, 0, 0, 11, 0, 0, 0, 3, 0, 0, 0, 19, 0, 0, 0})
	f.Add([]byte{5, 24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		rep, shift := 1+int(data[0]), uint(data[1]%32)
		var vals []uint32
		for b := data[2:]; len(b) >= 4 && len(vals) < frameLen; b = b[4:] {
			v := binary.LittleEndian.Uint32(b) >> shift
			for j := 0; j < rep && len(vals) < frameLen; j++ {
				vals = append(vals, v)
			}
		}
		checkEncodeCol(t, "fuzzed", vals)
	})
}
