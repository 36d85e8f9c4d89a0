package checkpoint

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func buildSample() *Snapshot {
	var snap Snapshot
	e := NewEncoder(64)
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(1<<63 | 12345)
	e.I64(-42)
	e.Int(-7)
	e.F64(math.Pi)
	e.F64(math.Copysign(0, -1))
	e.String("hello, checkpoint")
	e.Bytes8([]byte{0, 1, 2, 255})
	e.Uint64s([]uint64{1, 2, 3})
	e.Uint32s([]uint32{9, 8})
	e.Int32s([]int32{-1, 0, 1})
	e.Ints([]int{-100, 100})
	e.F64s([]float64{1.5, -2.5})
	e.Bools([]bool{true, false, true})
	snap.Add("alpha", e.Bytes())
	snap.Add("beta", nil)
	snap.Add("gamma", []byte("raw payload"))
	return &snap
}

func TestRoundTrip(t *testing.T) {
	snap := buildSample()
	data := snap.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Sections()) != 3 {
		t.Fatalf("got %d sections, want 3", len(got.Sections()))
	}
	payload, err := got.Section("alpha")
	if err != nil {
		t.Fatalf("Section(alpha): %v", err)
	}
	d := NewDecoder(payload)
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d, want 7", v)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round-trip failed")
	}
	if v := d.U16(); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 1<<63|12345 {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64 signed zero lost: %v", v)
	}
	if v := d.String(); v != "hello, checkpoint" {
		t.Errorf("String = %q", v)
	}
	b := d.Bytes8()
	if len(b) != 4 || b[3] != 255 {
		t.Errorf("Bytes8 = %v", b)
	}
	if vs := d.Uint64s(); len(vs) != 3 || vs[2] != 3 {
		t.Errorf("Uint64s = %v", vs)
	}
	if vs := d.Uint32s(); len(vs) != 2 || vs[0] != 9 {
		t.Errorf("Uint32s = %v", vs)
	}
	if vs := d.Int32s(); len(vs) != 3 || vs[0] != -1 {
		t.Errorf("Int32s = %v", vs)
	}
	if vs := d.Ints(); len(vs) != 2 || vs[0] != -100 {
		t.Errorf("Ints = %v", vs)
	}
	if vs := d.F64s(); len(vs) != 2 || vs[1] != -2.5 {
		t.Errorf("F64s = %v", vs)
	}
	if vs := d.Bools(); len(vs) != 3 || !vs[2] {
		t.Errorf("Bools = %v", vs)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	if _, err := got.Section("delta"); err == nil {
		t.Errorf("Section(delta) should fail")
	}
	if got.Has("beta") != true || got.Has("delta") != false {
		t.Errorf("Has() wrong")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := buildSample().Encode()
	b := buildSample().Encode()
	if string(a) != string(b) {
		t.Fatalf("Encode is not byte-reproducible")
	}
}

// Every single-byte corruption of an encoded snapshot must be caught
// by the framing or a section checksum.
func TestBitFlipDetected(t *testing.T) {
	data := buildSample().Encode()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at byte %d not detected", i)
		}
	}
}

// Every truncation must be caught.
func TestTruncationDetected(t *testing.T) {
	data := buildSample().Encode()
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestTrailingGarbageDetected(t *testing.T) {
	data := append(buildSample().Encode(), 0xff)
	if _, err := Decode(data); err == nil {
		t.Fatal("trailing garbage not detected")
	}
}

func TestErrorsWrapErrCorrupt(t *testing.T) {
	_, err := Decode([]byte("not a checkpoint at all"))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.U64() // fails: only two bytes
	if d.Err() == nil {
		t.Fatal("expected error after short read")
	}
	// Subsequent reads stay zero-valued and keep the first error.
	if v := d.U32(); v != 0 {
		t.Errorf("read after error = %d, want 0", v)
	}
	if d.Finish() == nil {
		t.Error("Finish should report the error")
	}
}

func TestDecoderUnreadBytes(t *testing.T) {
	e := NewEncoder(16)
	e.U64(1)
	e.U64(2)
	d := NewDecoder(e.Bytes())
	d.U64()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish should reject unread bytes")
	}
}

// A hostile count field must not cause a huge allocation: the count is
// validated against the bytes actually remaining before allocating.
func TestHostileCountRejected(t *testing.T) {
	e := NewEncoder(16)
	e.U64(1 << 60) // claims 2^60 elements with no data behind it
	d := NewDecoder(e.Bytes())
	if vs := d.Uint64s(); vs != nil {
		t.Fatalf("Uint64s returned %d elems on hostile count", len(vs))
	}
	if d.Err() == nil {
		t.Fatal("hostile count not rejected")
	}
}

func TestBoolByteValidated(t *testing.T) {
	d := NewDecoder([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Fatal("bool byte 2 not rejected")
	}
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	snap := buildSample()
	if err := snap.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// Overwrite with a second snapshot; the rename must replace it.
	var second Snapshot
	second.Add("only", []byte("v2"))
	if err := second.WriteFile(path); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got.Sections()) != 1 || got.Sections()[0].Name != "only" {
		t.Fatalf("unexpected snapshot after overwrite: %+v", got.Sections())
	}
	// No temp files may linger.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestReadFileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadFile on garbage: %v", err)
	}
}

// TestPolicyValidate: a policy that names a file must write it; an
// interval below 1 is an error, not a silent opt-out.
func TestPolicyValidate(t *testing.T) {
	var nilPolicy *Policy
	for _, ok := range []*Policy{nilPolicy, {}, {Every: 0}, {Path: "x", Every: 1}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
	for _, every := range []int{0, -3} {
		err := (&Policy{Path: "x", Every: every}).Validate()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("Every = %d", every)) {
			t.Errorf("Every = %d: %v, want a rejection naming it", every, err)
		}
	}
}

func TestPolicyEnabled(t *testing.T) {
	if (&Policy{}).Enabled() {
		t.Error("empty policy enabled")
	}
	if (&Policy{Path: "x"}).Enabled() {
		t.Error("policy without Every enabled")
	}
	if (&Policy{Path: "x", Every: -1}).Enabled() {
		t.Error("negative Every enabled")
	}
	if !(&Policy{Path: "x", Every: 10}).Enabled() {
		t.Error("valid policy not enabled")
	}
	var nilPolicy *Policy
	if nilPolicy.Enabled() {
		t.Error("nil policy enabled")
	}
}
