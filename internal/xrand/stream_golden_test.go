package xrand

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestStreamGolden pins the generator's output: every seeded simulation,
// fingerprint and checkpoint in the repository replays from this stream,
// so a rewrite of Uint64 or of Intn's rejection sampler must reproduce
// it exactly. The bounds just above 2^62 send about a quarter of their
// draws through the rejection loop, so both of boundedUint64's paths
// are pinned.
func TestStreamGolden(t *testing.T) {
	firsts := map[uint64][4]uint64{
		0:       {0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c},
		1:       {0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7},
		42:      {0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1},
		1 << 63: {0xd01bfa9b44a998c3, 0x797c6b72ff690d62, 0x4576af98398380b1, 0xe5ce401830aaa16c},
	}
	for seed, want := range firsts {
		r := New(seed)
		got := [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
		if got != want {
			t.Errorf("seed %d: first Uint64s %#x, want %#x", seed, got, want)
		}
	}

	r := New(7)
	if got, want := r.Perm(16), []int{6, 8, 2, 14, 5, 7, 1, 3, 10, 0, 9, 13, 12, 15, 4, 11}; !reflect.DeepEqual(got, want) {
		t.Errorf("Perm(16) = %v, want %v", got, want)
	}
	var got []int
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30, 1<<62 + 1, 1<<62 + 12345, 3 << 61} {
		got = append(got, r.Intn(n))
	}
	if want := []int{0, 0, 1, 1, 133, 184067730, 3003850678913662123, 3078084620136454782, 1944354878707274655}; !reflect.DeepEqual(got, want) {
		t.Errorf("Intn sequence = %v, want %v", got, want)
	}
	if got, want := r.State(), [4]uint64{0xce33cbb76ff70cd5, 0xa42aa98786c02d25, 0xaa18153dc3e05f44, 0x99a8a65bb86a3f06}; got != want {
		t.Errorf("state after the sequence = %#x, want %#x", got, want)
	}

	// A long mixed stream: raw words, growing bounds, bounds near 2^62
	// and a small odd bound, hashed, plus the state it ends in.
	h := sha256.New()
	r = New(99)
	var buf [8]byte
	for i := 0; i < 20000; i++ {
		var v uint64
		switch i % 4 {
		case 0:
			v = r.Uint64()
		case 1:
			v = uint64(r.Intn(i + 1))
		case 2:
			v = uint64(r.Intn(1<<62 + i))
		case 3:
			v = uint64(r.Intn(7))
		}
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "9bc2408cd2f91ed9beac4ce095512258d5f791b8a8e6da096897e6da187c56e2"; got != want {
		t.Errorf("mixed stream hash %s, want %s", got, want)
	}
	if got, want := r.State(), [4]uint64{0xbe66e43a58189515, 0x1cf35359d4fa3051, 0xc77f764eec77e695, 0x2b98c09eb5cb6a81}; got != want {
		t.Errorf("state after the mixed stream = %#x, want %#x", got, want)
	}
}
