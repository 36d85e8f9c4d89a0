// Package checkpoint implements the versioned binary snapshot format
// used to persist full engine state mid-run, so that a crashed or
// killed simulation can be resumed and — by the determinism contract
// of DESIGN.md §8 — produce a byte-identical result to an
// uninterrupted run.
//
// A snapshot is an ordered list of named sections. Each section's
// payload is an opaque byte string produced by an Encoder and consumed
// by a Decoder; the container frames every section with its length and
// a CRC32 checksum over (name, payload), so a torn write, bit flip, or
// truncated file is always detected and reported as an error. Nothing
// in this package ever decodes a corrupted snapshot into a plausible
// but wrong state: every read is bounds-checked, every allocation is
// capped by the number of bytes actually remaining, and the decoder
// never panics on arbitrary input (enforced by FuzzCheckpointDecode).
//
// The package deliberately imports only the standard library. Engine
// packages (simulate, asim, trace, fault, adversary, ...) depend on
// checkpoint and provide their own Snapshot/Restore methods; the
// reverse dependency would be a cycle.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint file. The trailing digits are the
// container format version: bump them on any incompatible change so
// old binaries reject new snapshots with a clear error instead of
// misdecoding them.
const Magic = "CDCKPT01"

// Limits that keep the decoder's allocations proportional to the
// input. A hostile length field can never make us allocate more than
// the bytes that are actually present.
const (
	maxSectionName = 256
	maxSections    = 1 << 16
)

// ErrCorrupt is wrapped by every decode failure, so callers can test
// errors.Is(err, checkpoint.ErrCorrupt) regardless of the detail.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated snapshot")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Corruptf builds an error wrapping ErrCorrupt. Engine packages use it
// for their own section-level validation failures, so every decode
// defect — container or payload — answers errors.Is(err, ErrCorrupt).
func Corruptf(format string, args ...any) error {
	return corruptf(format, args...)
}

// Policy configures periodic checkpointing for an engine run. Every is
// interpreted by the engine: ticks for the synchronous engine, handled
// events for the asynchronous one.
type Policy struct {
	// Path is the file the snapshot is (re)written to. Writes are
	// atomic: a crash mid-write leaves either the previous complete
	// snapshot or none, never a torn file.
	Path string
	// Every is the checkpoint interval in engine-defined units
	// (ticks or handled events). Zero or negative disables
	// checkpointing.
	Every int
}

// Enabled reports whether the policy asks for periodic snapshots.
func (p *Policy) Enabled() bool {
	return p != nil && p.Path != "" && p.Every > 0
}

// Section is one named, checksummed unit of a snapshot.
type Section struct {
	Name    string
	Payload []byte
}

// Snapshot is an ordered collection of sections. Order is part of the
// format: encoding the same sections in the same order is
// byte-reproducible.
type Snapshot struct {
	sections []Section
}

// Add appends a section. Names need not be unique, but the engines
// only use unique names; Section() returns the first match.
func (s *Snapshot) Add(name string, payload []byte) {
	s.sections = append(s.sections, Section{Name: name, Payload: payload})
}

// Section returns the payload of the first section with the given
// name, or an error naming the missing section.
func (s *Snapshot) Section(name string) ([]byte, error) {
	for _, sec := range s.sections {
		if sec.Name == name {
			return sec.Payload, nil
		}
	}
	return nil, fmt.Errorf("checkpoint: snapshot has no %q section", name)
}

// Put encodes a section with fn into an encoder of the given initial
// capacity and appends it.
func (s *Snapshot) Put(name string, capacity int, fn func(*Encoder)) {
	e := NewEncoder(capacity)
	fn(e)
	s.Add(name, e.Bytes())
}

// Get decodes the named section with fn and requires fn to consume it
// exactly: a missing section, fn's error, a sticky decode error, and
// trailing bytes all fail.
func (s *Snapshot) Get(name string, fn func(*Decoder) error) error {
	p, err := s.Section(name)
	if err != nil {
		return err
	}
	d := NewDecoder(p)
	if err := fn(d); err != nil {
		return err
	}
	return d.Finish()
}

// Has reports whether a section with the given name exists.
func (s *Snapshot) Has(name string) bool {
	_, err := s.Section(name)
	return err == nil
}

// Sections returns the section list in encoding order.
func (s *Snapshot) Sections() []Section { return s.sections }

// Encode serializes the snapshot:
//
//	magic[8] | sectionCount u32 | sections...
//
// and each section as
//
//	nameLen u16 | name | payloadLen u64 | payload | crc32(name+payload) u32
func (s *Snapshot) Encode() []byte {
	size := len(Magic) + 4
	for _, sec := range s.sections {
		size += 2 + len(sec.Name) + 8 + len(sec.Payload) + 4
	}
	out := make([]byte, 0, size)
	out = append(out, Magic...)
	out = appendU32(out, uint32(len(s.sections)))
	for _, sec := range s.sections {
		if len(sec.Name) > maxSectionName {
			// Engines never build such names; guard the format
			// invariant anyway so Decode's cap is sound.
			panic("checkpoint: section name too long")
		}
		out = appendU16(out, uint16(len(sec.Name)))
		out = append(out, sec.Name...)
		out = appendU64(out, uint64(len(sec.Payload)))
		out = append(out, sec.Payload...)
		crc := crc32.ChecksumIEEE([]byte(sec.Name))
		crc = crc32.Update(crc, crc32.IEEETable, sec.Payload)
		out = appendU32(out, crc)
	}
	return out
}

// Decode parses an encoded snapshot, verifying framing and every
// section checksum. Any defect — wrong magic, truncation, trailing
// garbage, checksum mismatch — yields an error wrapping ErrCorrupt.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+4 {
		return nil, corruptf("short header: %d bytes", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, corruptf("bad magic %q (want %q)", data[:len(Magic)], Magic)
	}
	pos := len(Magic)
	count := readU32(data[pos:])
	pos += 4
	if count > maxSections {
		return nil, corruptf("section count %d exceeds limit %d", count, maxSections)
	}
	snap := &Snapshot{}
	for i := uint32(0); i < count; i++ {
		if len(data)-pos < 2 {
			return nil, corruptf("section %d: truncated name length", i)
		}
		nameLen := int(readU16(data[pos:]))
		pos += 2
		if nameLen > maxSectionName {
			return nil, corruptf("section %d: name length %d exceeds limit", i, nameLen)
		}
		if len(data)-pos < nameLen {
			return nil, corruptf("section %d: truncated name", i)
		}
		name := string(data[pos : pos+nameLen])
		pos += nameLen
		if len(data)-pos < 8 {
			return nil, corruptf("section %d (%q): truncated payload length", i, name)
		}
		payloadLen64 := readU64(data[pos:])
		pos += 8
		if payloadLen64 > uint64(len(data)-pos) {
			return nil, corruptf("section %d (%q): payload length %d exceeds remaining %d bytes",
				i, name, payloadLen64, len(data)-pos)
		}
		payloadLen := int(payloadLen64)
		payload := data[pos : pos+payloadLen]
		pos += payloadLen
		if len(data)-pos < 4 {
			return nil, corruptf("section %d (%q): truncated checksum", i, name)
		}
		want := readU32(data[pos:])
		pos += 4
		crc := crc32.ChecksumIEEE([]byte(name))
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != want {
			return nil, corruptf("section %d (%q): checksum mismatch (have %08x, want %08x)",
				i, name, crc, want)
		}
		// Copy the payload so the snapshot does not alias the
		// caller's buffer (which may be reused or mmapped).
		snap.Add(name, append([]byte(nil), payload...))
	}
	if pos != len(data) {
		return nil, corruptf("%d trailing bytes after last section", len(data)-pos)
	}
	return snap, nil
}

// WriteFile atomically persists the snapshot: it writes to a temporary
// file in the destination directory, fsyncs, and renames over path. A
// crash at any point leaves either the previous snapshot or the new
// one, never a torn mixture.
func (s *Snapshot) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(s.Encode()); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	return nil
}

// ReadFile loads and decodes a snapshot from disk.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// ---------------------------------------------------------------------
// Encoder: builds a section payload from typed primitives. All
// multi-byte values are little-endian and fixed-width; counts are
// u64. Fixed-width costs a few bytes over varints but keeps encode
// and decode trivially symmetric and branch-free.

// Encoder accumulates a section payload.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder with the given capacity hint.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = appendU16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = appendU32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = appendU64(e.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 via its IEEE-754 bit pattern, preserving the
// value exactly (including NaN payloads and signed zero).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes8 appends a u64 length prefix followed by the raw bytes.
func (e *Encoder) Bytes8(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a u64 length prefix followed by the string bytes.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Uint64s appends a u64 count followed by the values.
func (e *Encoder) Uint64s(vs []uint64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Uint32s appends a u64 count followed by the values.
func (e *Encoder) Uint32s(vs []uint32) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U32(v)
	}
}

// Int32s appends a u64 count followed by the values.
func (e *Encoder) Int32s(vs []int32) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U32(uint32(v))
	}
}

// Ints appends a u64 count followed by the values as int64s.
func (e *Encoder) Ints(vs []int) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.I64(int64(v))
	}
}

// F64s appends a u64 count followed by the values' bit patterns.
func (e *Encoder) F64s(vs []float64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// Bools appends a u64 count followed by one byte per value.
func (e *Encoder) Bools(vs []bool) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.Bool(v)
	}
}

// ---------------------------------------------------------------------
// Decoder: mirrors Encoder with a sticky error. Every read is bounds
// checked; once a read fails, all subsequent reads return zero values
// and Err() reports the first failure. Slice allocations are capped by
// the bytes remaining, so hostile counts cannot cause huge allocations.

// Decoder consumes a section payload.
type Decoder struct {
	buf []byte
	pos int
	err error
}

// NewDecoder returns a decoder over the payload.
func NewDecoder(payload []byte) *Decoder {
	return &Decoder{buf: payload}
}

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Finish reports an error if decoding failed or bytes remain unread —
// leftover bytes mean the payload and the decode logic disagree about
// the format, which must never be silently ignored.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.buf) {
		return corruptf("%d unread bytes at end of section", len(d.buf)-d.pos)
	}
	return nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = corruptf("truncated %s at offset %d", what, d.pos)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.pos < n {
		d.fail(what)
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte and rejects values other than 0 or 1: a
// corrupted flag must surface as an error, not be truncated to a
// plausible boolean.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if d.err == nil && v > 1 {
		d.err = corruptf("invalid bool byte %d at offset %d", v, d.pos-1)
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2, "u16")
	if b == nil {
		return 0
	}
	return readU16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return readU32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return readU64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64 and reports an error if it does not fit in int.
func (d *Decoder) Int() int {
	v := d.I64()
	if d.err == nil && int64(int(v)) != v {
		d.err = corruptf("int64 %d overflows int", v)
	}
	return int(v)
}

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// count reads a u64 element count and validates it against the bytes
// remaining, given the minimum encoded size of one element.
func (d *Decoder) count(elemSize int, what string) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/elemSize) {
		d.err = corruptf("%s count %d exceeds remaining %d bytes", what, n, d.Remaining())
		return 0
	}
	return int(n)
}

// Bytes8 reads a u64 length prefix and that many raw bytes, returning
// a copy.
func (d *Decoder) Bytes8() []byte {
	n := d.count(1, "bytes")
	if d.err != nil {
		return nil
	}
	b := d.take(n, "bytes body")
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a u64 length prefix and that many bytes as a string.
func (d *Decoder) String() string {
	n := d.count(1, "string")
	if d.err != nil {
		return ""
	}
	b := d.take(n, "string body")
	return string(b)
}

// Uint64s reads a u64 count and that many uint64 values.
func (d *Decoder) Uint64s() []uint64 {
	n := d.count(8, "uint64 slice")
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.U64()
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// Uint32s reads a u64 count and that many uint32 values.
func (d *Decoder) Uint32s() []uint32 {
	n := d.count(4, "uint32 slice")
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = d.U32()
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// Int32s reads a u64 count and that many int32 values.
func (d *Decoder) Int32s() []int32 {
	n := d.count(4, "int32 slice")
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(d.U32())
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// Ints reads a u64 count and that many int values.
func (d *Decoder) Ints() []int {
	n := d.count(8, "int slice")
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// F64s reads a u64 count and that many float64 values.
func (d *Decoder) F64s() []float64 {
	n := d.count(8, "float64 slice")
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.F64()
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// Bools reads a u64 count and that many boolean bytes.
func (d *Decoder) Bools() []bool {
	n := d.count(1, "bool slice")
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = d.Bool()
	}
	if d.err != nil {
		return nil
	}
	return vs
}

// ---------------------------------------------------------------------
// Little-endian helpers (manual, to avoid importing encoding/binary's
// interface machinery on the hot path).

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU16(b []byte) uint16 {
	return uint16(b[0]) | uint16(b[1])<<8
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
