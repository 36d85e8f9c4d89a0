package mechanism

import (
	"slices"

	"barterdist/internal/checkpoint"
)

// Snapshot appends the ledger's state to enc: the credit limit and the
// non-zero pairwise balances in ascending key order. Zero balances are
// skipped — they are semantically absent (Net reports 0 either way),
// and skipping them makes the encoding canonical: a restored ledger
// and the live one it was captured from snapshot to identical bytes.
func (l *Ledger) Snapshot(enc *checkpoint.Encoder) {
	enc.Int(l.limit)
	keys := make([]uint64, 0, l.pairs.count)
	for i := range l.pairs.slots {
		if s := &l.pairs.slots[i]; s.net != 0 {
			keys = append(keys, s.key())
		}
	}
	slices.Sort(keys)
	enc.Int(len(keys))
	for _, k := range keys {
		enc.U64(k)
		enc.Int(int(l.pairs.get(k)))
	}
}

// RestoreState overwrites the ledger's balances from dec. The encoded
// credit limit must match the ledger's (the limit comes from config,
// not the snapshot; a mismatch means the snapshot belongs to a
// different run). Keys must be strictly ascending with a non-zero low
// word (a pair key's low word is the larger id, always a client's; the
// pair table reads a zero low word as an empty slot), and values
// non-zero and within the ledger's 32-bit balances, so a corrupted
// payload cannot decode into a plausible ledger.
func (l *Ledger) RestoreState(dec *checkpoint.Decoder) error {
	limit := dec.Int()
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if limit != l.limit {
		return checkpoint.Corruptf("mechanism: snapshot credit limit %d, config has %d", limit, l.limit)
	}
	if n < 0 {
		return checkpoint.Corruptf("mechanism: negative pair count %d", n)
	}
	var pairs pairTable
	var prev uint64
	for i := 0; i < n; i++ {
		k := dec.U64()
		v := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		if i > 0 && k <= prev {
			return checkpoint.Corruptf("mechanism: ledger keys not strictly ascending at entry %d", i)
		}
		if uint32(k) == 0 {
			return checkpoint.Corruptf("mechanism: ledger entry %d has key %#x, whose low word holds no client id", i, k)
		}
		if v == 0 {
			return checkpoint.Corruptf("mechanism: ledger entry %d has zero balance", i)
		}
		if v != int(int32(v)) {
			return checkpoint.Corruptf("mechanism: ledger entry %d balance %d out of range", i, v)
		}
		prev = k
		pairs.add(k, int32(v))
	}
	l.pairs = pairs
	return nil
}
