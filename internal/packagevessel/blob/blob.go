// Package blob is the content-addressed substrate under PackageVessel
// (§3.5): chunks are identified by the digest of their bytes, not by a
// (package, version, index) triple.
//
// Content addressing buys three properties at once (the Nix insight from
// PAPERS.md):
//
//   - Dedup across versions: if v2 of a package changes 10% of its
//     chunks, the other 90% keep their digests, so they already exist in
//     every store and on every peer that holds v1. Publishing v2 uploads
//     only the new chunks, and a fetching agent downloads only them.
//   - Integrity without trust: a receiver verifies a chunk by hashing the
//     bytes and comparing against the manifest entry — it never has to
//     trust the sender, so any peer may serve any chunk it holds,
//     regardless of which package version it was fetched for.
//   - Natural rarity: a swarm coordinator counts holders per digest, and
//     chunks shared between versions automatically have many holders, so
//     rarest-first scheduling concentrates on the genuinely new bytes.
//
// A Manifest is the ordered list of chunk references for one (package,
// version); its own canonical encoding is digest-addressed too, so the
// tiny record distributed through Configerator can name the whole
// multi-GB package by a single hash.
//
// Simulation note: a Chunk carries its true bytes (which the digest
// covers) plus a logical size — the number of bytes the chunk stands for
// on the wire and on disk. Experiments model multi-GB packages by giving
// each chunk a small representative payload and a megabyte-scale logical
// size; bandwidth accounting charges the logical size while integrity
// checks hash the real bytes. Chunks are immutable and shared by pointer
// across every simulated node, so a 10k-agent fleet holds one copy of the
// package content, not ten thousand.
package blob

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"configerator/internal/vcs"
)

// Digest is the 64-bit content address of a chunk (or of a manifest's
// canonical encoding). It uses the same FNV-1a hash the distribution
// plane already puts on the wire (vcs.HashBytes).
type Digest uint64

// DigestOf hashes bytes to their content address.
func DigestOf(b []byte) Digest { return Digest(vcs.HashBytes(b)) }

// String renders the digest as 16 lowercase hex digits.
func (d Digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// ParseDigest parses the String form: exactly 16 lowercase hex digits, so
// that ParseDigest(s).String() == s for every s it accepts.
func ParseDigest(s string) (Digest, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("blob: bad digest %q", s)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, fmt.Errorf("blob: bad digest %q", s)
		}
	}
	return Digest(v), nil
}

// Chunk is one immutable content-addressed block. Data is the true
// content (what the digest covers); Size is the logical byte count the
// chunk stands for in bandwidth and storage accounting (>= len(Data) in
// scaled simulations, == len(Data) for real content).
type Chunk struct {
	digest Digest
	data   []byte
	size   int
}

// NewChunk builds a chunk from its content. logicalSize <= 0 means the
// content is full-fidelity (logical size = len(data)). The data slice is
// owned by the chunk after the call and must not be mutated.
func NewChunk(data []byte, logicalSize int) *Chunk {
	if logicalSize <= 0 {
		logicalSize = len(data)
	}
	return &Chunk{digest: DigestOf(data), data: data, size: logicalSize}
}

// Digest is the chunk's content address.
func (c *Chunk) Digest() Digest { return c.digest }

// Size is the logical byte count.
func (c *Chunk) Size() int { return c.size }

// Data is the chunk content. Callers must not mutate it.
func (c *Chunk) Data() []byte { return c.data }

// Ref names one chunk inside a manifest.
type Ref struct {
	Digest Digest `json:"digest"`
	Size   int    `json:"size"`
}

// Manifest is the complete recipe for one (package, version): the ordered
// chunk references. Everything else about the bulk content is derivable —
// total size is the sum of ref sizes, and the manifest's own digest (of
// its canonical encoding) is the single hash the small Configerator
// record carries.
type Manifest struct {
	Name    string `json:"name"`
	Version int64  `json:"version"`
	Chunks  []Ref  `json:"chunks"`
}

// NumChunks is the chunk count.
func (m Manifest) NumChunks() int { return len(m.Chunks) }

// Size is the package's total logical size.
func (m Manifest) Size() int64 {
	var n int64
	for _, r := range m.Chunks {
		n += int64(r.Size)
	}
	return n
}

// Key identifies the (package, version) pair.
func (m Manifest) Key() string { return key(m.Name, m.Version) }

// key is the Key of the manifest of (name, version).
func key(name string, version int64) string {
	return name + "@" + strconv.FormatInt(version, 10)
}

// Digest is the content address of the canonical encoding.
func (m Manifest) Digest() Digest { return DigestOf(m.Encode()) }

// Validate checks structural invariants.
func (m Manifest) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("blob: manifest without a name")
	case !utf8.ValidString(m.Name):
		// Encode writes such a name's bad bytes as \ufffd, which decodes
		// to a different name, so no agent could parse the manifest.
		return fmt.Errorf("blob: manifest name %q is not valid UTF-8", m.Name)
	case m.Version < 0:
		return fmt.Errorf("blob: manifest %s: negative version", m.Name)
	case len(m.Chunks) == 0:
		return fmt.Errorf("blob: manifest %s: no chunks", m.Key())
	}
	for i, r := range m.Chunks {
		if r.Size <= 0 {
			return fmt.Errorf("blob: manifest %s: chunk %d has size %d", m.Key(), i, r.Size)
		}
	}
	return nil
}

// Distinct returns the manifest's unique digests with their sizes (a
// package may reference the same chunk more than once; transfers fetch it
// once).
func (m Manifest) Distinct() map[Digest]int {
	set := make(map[Digest]int, len(m.Chunks))
	for _, r := range m.Chunks {
		if _, ok := set[r.Digest]; !ok {
			set[r.Digest] = r.Size
		}
	}
	return set
}
