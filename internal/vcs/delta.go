package vcs

import (
	"encoding/binary"
	"errors"
)

// This file is the wire-delta side of the diff machinery: DiffLines (diff.go)
// measures changes the way the paper's Table 2 counts them, while MakeDelta /
// ApplyDelta turn a change into an applicable patch so the distribution plane
// can ship bytes proportional to the edit instead of the config. Config edits
// are overwhelmingly tiny (two-line updates dominate, Table 2), so a
// common-prefix/common-suffix splice captures nearly all of the savings of a
// full edit script at O(n) cost and with a trivially verifiable encoding.

// ErrBadDelta is returned when a delta does not apply to the given base.
var ErrBadDelta = errors.New("vcs: delta does not apply to this base")

// FNV-1a constants (identical to hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashBytes returns the 64-bit FNV-1a content hash used to identify config
// versions on the wire (observers and proxies advertise it; deltas name
// their base and result with it). The loop is inlined rather than going
// through hash/fnv so the read and update hot paths hash without
// allocating — hash/fnv's constructor escapes its state to the heap on
// every call, which at fleet read rates is an allocation per advertised
// hash. TestHashBytesMatchesStdlib pins the two implementations together
// (the hash is on the wire, so it must never drift).
func HashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// MakeDelta encodes new as a splice against old: the bytes old and new share
// at the front and back are referenced by length, and only the differing
// middle of new is carried. Returns nil when the encoding would not be
// strictly smaller than new — the caller should ship the full content.
func MakeDelta(old, new []byte) []byte {
	p := 0
	max := len(old)
	if len(new) < max {
		max = len(new)
	}
	for p < max && old[p] == new[p] {
		p++
	}
	s := 0
	for s < max-p && old[len(old)-1-s] == new[len(new)-1-s] {
		s++
	}
	mid := new[p : len(new)-s]
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(mid))
	buf = binary.AppendUvarint(buf, uint64(p))
	buf = binary.AppendUvarint(buf, uint64(s))
	buf = append(buf, mid...)
	if len(buf) >= len(new) {
		return nil
	}
	return buf
}

// ApplyDelta reconstructs the new content from the base it was made against.
// A delta applied to the wrong base either fails here or produces bytes whose
// HashBytes differs from the advertised result hash — callers must verify.
func ApplyDelta(old, delta []byte) ([]byte, error) {
	p, n1 := binary.Uvarint(delta)
	if n1 <= 0 {
		return nil, ErrBadDelta
	}
	s, n2 := binary.Uvarint(delta[n1:])
	if n2 <= 0 {
		return nil, ErrBadDelta
	}
	mid := delta[n1+n2:]
	// Compared this way round because p+s can wrap: both are attacker-sized.
	if n := uint64(len(old)); p > n || s > n-p {
		return nil, ErrBadDelta
	}
	out := make([]byte, 0, int(p)+len(mid)+int(s))
	out = append(out, old[:p]...)
	out = append(out, mid...)
	out = append(out, old[uint64(len(old))-s:]...)
	return out, nil
}
