package trace

import "testing"

// CheckSealedFrames asserts that every sealed frame of l holds exactly
// the bytes the reference encoder writes for its three decoded columns,
// and returns the number of frames checked.
func CheckSealedFrames(t testing.TB, l *Log) int {
	t.Helper()
	var w Win
	for f := range l.frames {
		from, to, block, _, _ := l.Window(&w, f<<frameShift)
		var want []byte
		for _, col := range [3][]uint32{from, to, block} {
			enc, _ := referenceEncodeCol(col)
			want = append(want, enc...)
		}
		if got := l.frames[f].data; string(got) != string(want) {
			t.Fatalf("sealed frame %d: %d bytes, reference encoder %d bytes", f, len(got), len(want))
		}
	}
	return len(l.frames)
}
