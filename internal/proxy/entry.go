package proxy

import (
	"sync/atomic"
	"time"

	"configerator/internal/vcs"
)

// Memo is the per-version decode slot carried by a cache entry: the client
// library parses a config version once and publishes the result here, so
// every subsequent reader of that version shares one decode. Each new
// version gets a fresh slot, so a stale parse can never be served. The
// zero Memo is empty and ready for use.
type Memo struct{ v atomic.Value }

// Load returns the memoized value, or nil when nothing has been stored
// (or when m is nil — disk-cache entries carry no memo).
func (m *Memo) Load() any {
	if m == nil {
		return nil
	}
	return m.v.Load()
}

// Store publishes the memoized value. Per atomic.Value's contract a slot
// must only ever hold one concrete type; losing a racing duplicate store
// is harmless — both decodes of the same bytes are equal.
func (m *Memo) Store(v any) {
	if m == nil || v == nil {
		return
	}
	m.v.Store(v)
}

// Entry is one cached config.
//
// Data is immutable: the bytes of one pushed version are materialized once
// and then shared by every proxy that receives it, by each proxy's cell (memory
// and disk side at once), and by every reader. Nothing may write to them.
type Entry struct {
	Path    string
	Exists  bool
	Data    []byte
	Version int64
	Zxid    int64
	// Hash is the content hash of Data (vcs.HashBytes). It is computed where
	// the bytes are born and verified once per pushed message (zeus.Payload);
	// the proxy carries it rather than rehashing, so delta bases, fetch
	// advertisements, decode dedup and convergence heartbeats all compare
	// digests in O(1).
	Hash uint64
	// Fetched is when the proxy last confirmed this entry with an
	// observer (virtual time).
	Fetched time.Time

	// memo is the shared decode slot for this (path, version). It rides on
	// the entry so subscribers and readers resolve the same slot without a
	// second lookup.
	memo *Memo
}

// Memo returns the entry's decode-memo slot. It is nil for entries loaded
// from the on-disk cache (those are re-parsed on use).
func (e Entry) Memo() *Memo { return e.memo }

// DiskCache is the on-disk cache: a view, with no copy of its own, of the disk
// side of a cell table — a proxy's (Proxy.Disk: what it last applied to each
// path, surviving its crashes), or a bare one (NewDiskCache) standing for what
// an earlier process left, which New seeds from. Safe for concurrent use.
type DiskCache struct{ s *store }

// NewDiskCache returns an empty cache.
func NewDiskCache() *DiskCache {
	d := &DiskCache{s: &store{}}
	d.s.snap.Store(&snapshot{})
	return d
}

// Store plants an entry as if an earlier process had left it. The data is
// copied: a caller mutating its slice afterwards cannot corrupt the cache.
// The in-memory decode memo does not survive the trip to disk. An entry that
// arrives without a digest is hashed here, once, so everything loaded back
// carries one.
func (d *DiskCache) Store(e Entry) {
	e.Data = append([]byte(nil), e.Data...)
	if e.Exists && e.Hash == 0 {
		e.Hash = vcs.HashBytes(e.Data)
	}
	d.s.plant(d.s.cell(e.Path), e)
}

// Load returns the entry for path. The data is a copy: a subscriber
// mutating the returned bytes cannot corrupt the cache.
func (d *DiskCache) Load(path string) (Entry, bool) {
	var st *entryState
	if c, _ := d.s.find(path); c != nil {
		st = c.st.Load() // nil until a racing Store plants it
	}
	if st == nil {
		return Entry{}, false
	}
	e := st.e
	e.memo, e.Data = nil, append([]byte(nil), e.Data...)
	return e, true
}
