// The Store is the node-local blob repository: digest-keyed chunks plus
// the manifests that have been fully assembled from them, plus a journal
// of in-progress transfers. It models an agent's disk: it survives the
// process (in the simulation, the node handler's crash/restart), which is
// what makes mid-package resume possible — a restarted agent re-verifies
// what the journal says should be on disk and fetches only the digests
// that are missing or fail verification.
package blob

import (
	"fmt"
	"sort"
	"sync"
)

// Journal records one in-progress transfer (the "incomplete file" entry):
// the manifest being assembled and where the bytes come from. Origin and
// Coordinator are opaque node names (the store does not depend on the
// network layer).
type Journal struct {
	Manifest    Manifest
	Origin      string // the registry holding the authoritative copy
	Coordinator string // the swarm tracker
}

// StoreStats summarizes a store's contents.
type StoreStats struct {
	Chunks       int   // distinct chunks held
	LogicalBytes int64 // sum of their logical sizes
	Manifests    int   // completed (package, version) manifests
	Journals     int   // in-progress transfers
}

// Store holds content-addressed chunks and package manifests. All methods
// are safe for concurrent use; within the simulation each node owns its
// store and touches it from the single event loop.
type Store struct {
	mu        sync.Mutex
	chunks    map[Digest]*Chunk
	manifests map[string]Manifest // completed, keyed by Manifest.Key()
	journals  map[string]*Journal // in-progress, keyed by Manifest.Key()
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		chunks:    make(map[Digest]*Chunk),
		manifests: make(map[string]Manifest),
		journals:  make(map[string]*Journal),
	}
}

// Put registers a chunk. It returns false when the digest was already
// present — the dedup hit the content-addressed design exists for.
func (s *Store) Put(c *Chunk) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chunks[c.digest]; ok {
		return false
	}
	s.chunks[c.digest] = c
	return true
}

// PutVerified registers received bytes only if they hash to want —
// integrity is verification of a digest, not trust in a sender.
func (s *Store) PutVerified(data []byte, logicalSize int, want Digest) (*Chunk, error) {
	if got := DigestOf(data); got != want {
		return nil, fmt.Errorf("blob: chunk digest mismatch: got %s want %s", got, want)
	}
	c := NewChunk(data, logicalSize)
	s.Put(c)
	return c, nil
}

// Get returns the chunk for a digest.
func (s *Store) Get(d Digest) (*Chunk, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.chunks[d]
	return c, ok
}

// Has reports whether the digest is present.
func (s *Store) Has(d Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.chunks[d]
	return ok
}

// Missing returns the manifest's distinct digests not yet in the store,
// in manifest order.
func (s *Store) Missing(m Manifest) []Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[Digest]bool, len(m.Chunks))
	var out []Digest
	for _, r := range m.Chunks {
		if seen[r.Digest] {
			continue
		}
		seen[r.Digest] = true
		if _, ok := s.chunks[r.Digest]; !ok {
			out = append(out, r.Digest)
		}
	}
	return out
}

// Begin journals an in-progress transfer. Beginning an already-complete
// or already-journaled key is a no-op (idempotent restart).
func (s *Store) Begin(m Manifest, origin, coordinator string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := m.Key()
	if _, done := s.manifests[key]; done {
		return
	}
	if _, ok := s.journals[key]; ok {
		return
	}
	s.journals[key] = &Journal{Manifest: m, Origin: origin, Coordinator: coordinator}
}

// Abandon drops a transfer's journal (e.g. a newer version superseded
// it). Chunks already fetched stay in the store: they are content-
// addressed, so they may dedup a future version's transfer.
func (s *Store) Abandon(m Manifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.journals, m.Key())
}

// Journals returns the in-progress transfers sorted by key, so restart
// recovery is deterministic.
func (s *Store) Journals() []Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.journals))
	for k := range s.journals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Journal, 0, len(keys))
	for _, k := range keys {
		out = append(out, *s.journals[k])
	}
	return out
}

// Verify re-checks a manifest's chunks against what is actually in the
// store, re-hashing each chunk's bytes (the restarted agent's "what is
// really on disk?" pass). Chunks whose bytes no longer match their digest
// are dropped and reported missing. Returns the verified-present and
// missing digest sets, each in manifest order without duplicates.
func (s *Store) Verify(m Manifest) (present, missing []Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[Digest]bool, len(m.Chunks))
	for _, r := range m.Chunks {
		if seen[r.Digest] {
			continue
		}
		seen[r.Digest] = true
		c, ok := s.chunks[r.Digest]
		if ok && DigestOf(c.data) == r.Digest {
			present = append(present, r.Digest)
			continue
		}
		if ok {
			delete(s.chunks, r.Digest) // corrupt on disk
		}
		missing = append(missing, r.Digest)
	}
	return present, missing
}

// Commit finalizes a transfer: every chunk the manifest references must
// be present, or an error names the first hole. On success the journal is
// cleared and the manifest recorded as complete.
func (s *Store) Commit(m Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range m.Chunks {
		if _, ok := s.chunks[r.Digest]; !ok {
			return fmt.Errorf("blob: commit %s: chunk %d (%s) missing", m.Key(), i, r.Digest)
		}
	}
	key := m.Key()
	delete(s.journals, key)
	s.manifests[key] = m
	return nil
}

// Manifest returns the completed manifest for (name, version).
func (s *Store) Manifest(name string, version int64) (Manifest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[fmt.Sprintf("%s@%d", name, version)]
	return m, ok
}

// Complete reports whether (name, version) is fully assembled.
func (s *Store) Complete(name string, version int64) bool {
	_, ok := s.Manifest(name, version)
	return ok
}

// Manifests returns every completed manifest, sorted by key.
func (s *Store) Manifests() []Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.manifests))
	for k := range s.manifests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Manifest, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.manifests[k])
	}
	return out
}

// Stats summarizes the store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{Chunks: len(s.chunks), Manifests: len(s.manifests), Journals: len(s.journals)}
	for _, c := range s.chunks {
		st.LogicalBytes += int64(c.size)
	}
	return st
}
