package trace

import (
	"errors"
	"reflect"
	"testing"

	"barterdist/internal/checkpoint"
)

func sampleLog(kinded bool) *Log {
	l := New(kinded)
	tick1 := []Transfer{{From: 0, To: 1, Block: 2}, {From: 1, To: 2, Block: 0}, {From: 2, To: 0, Block: 1}}
	tick2 := []Transfer{{From: 3, To: 1, Block: 5}}
	var k1, k2 []uint8
	if kinded {
		k1 = []uint8{KindFault, KindRefused}
		k2 = []uint8{KindGarbage}
	}
	l.AppendTick(tick1, []int32{0, 2}, k1)
	l.AppendTick(tick2, []int32{0}, k2)
	l.AppendTick(nil, nil, nil)
	return l
}

func snapshotBytes(l *Log) []byte {
	e := checkpoint.NewEncoder(256)
	l.Snapshot(e)
	return e.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, kinded := range []bool{false, true} {
		orig := sampleLog(kinded)
		got, err := Restore(checkpoint.NewDecoder(snapshotBytes(orig)))
		if err != nil {
			t.Fatalf("kinded=%v Restore: %v", kinded, err)
		}
		if got.Ticks() != orig.Ticks() || got.Len() != orig.Len() || got.Drops() != orig.Drops() || got.Kinded() != kinded {
			t.Fatalf("kinded=%v shape mismatch", kinded)
		}
		// Walking both cursors must yield identical streams.
		a, b := orig.Cursor(), got.Cursor()
		for a.NextTick() {
			if !b.NextTick() {
				t.Fatal("restored log has fewer ticks")
			}
			for a.NextSpan() {
				if !b.NextSpan() {
					t.Fatal("restored log has fewer spans")
				}
				if sa, sb := a.Span(), b.Span(); !reflect.DeepEqual(sa, sb) {
					t.Fatalf("kinded=%v stream diverged at tick %d index %d", kinded, a.Tick(), sa.Index)
				}
			}
			if b.NextSpan() {
				t.Fatal("restored log has extra transfers")
			}
		}
		if b.NextTick() {
			t.Fatal("restored log has extra ticks")
		}
		// A resumed run appends to the restored log; the appended
		// suffix must encode identically to appending to the original.
		more := []Transfer{{From: 9, To: 8, Block: 7}}
		var mk []uint8
		if kinded {
			mk = []uint8{KindStalled}
		}
		orig.AppendTick(more, []int32{0}, mk)
		got.AppendTick(more, []int32{0}, mk)
		if string(snapshotBytes(orig)) != string(snapshotBytes(got)) {
			t.Fatalf("kinded=%v append-after-restore diverged", kinded)
		}
	}
}

func TestSnapshotEmptyLog(t *testing.T) {
	got, err := Restore(checkpoint.NewDecoder(snapshotBytes(New(true))))
	if err != nil {
		t.Fatalf("Restore empty: %v", err)
	}
	if got.Ticks() != 0 || got.Len() != 0 {
		t.Fatal("empty log round-trip not empty")
	}
}

// Hand-built invalid payloads must be rejected with ErrCorrupt, never
// accepted into a Log that would misbehave under a Cursor.
func TestRestoreRejectsInvalid(t *testing.T) {
	type mutator struct {
		name string
		fn   func(l *Log)
	}
	for _, m := range []mutator{
		{"column length mismatch", func(l *Log) { l.openTo = l.openTo[:len(l.openTo)-1] }},
		{"tickEnd not monotone", func(l *Log) { l.tickEnd[1] = 0 }},
		{"tickEnd overshoots", func(l *Log) { l.tickEnd[len(l.tickEnd)-1] = 99 }},
		{"dropPos out of tick span", func(l *Log) { l.dropPos[0] = 3 }},
		{"dropPos not ascending", func(l *Log) { l.dropPos[1] = l.dropPos[0] }},
		{"dropTickEnd length mismatch", func(l *Log) { l.dropTickEnd = l.dropTickEnd[:1] }},
		{"transfers without ticks", func(l *Log) { l.tickEnd = nil; l.dropTickEnd = nil }},
		{"kind count mismatch", func(l *Log) { l.kindLen = 1 }},
		{"invalid kind nibble", func(l *Log) { l.dropKind[0] = 0x0f }},
		{"stale high nibble", func(l *Log) { l.dropKind[1] |= 0xf0 }},
		{"unkinded with kinds", func(l *Log) { l.kinded = false }},
	} {
		l := sampleLog(true)
		m.fn(l)
		_, err := Restore(checkpoint.NewDecoder(snapshotBytes(l)))
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", m.name, err)
		}
	}
}

func TestRestoreRejectsTruncation(t *testing.T) {
	data := snapshotBytes(sampleLog(true))
	for n := 0; n < len(data); n++ {
		l, err := Restore(checkpoint.NewDecoder(data[:n]))
		if err == nil {
			// A truncated prefix may still parse if a trailing
			// empty slice is cut exactly — but Finish-style
			// accounting in the engines catches that; here the
			// decoded log must at least be structurally valid.
			if verr := l.validate(); verr != nil {
				t.Fatalf("truncation to %d decoded an invalid log", n)
			}
		}
	}
}
