// Package zeus implements this repository's version of Zeus — Facebook's
// forked ZooKeeper (§3.4) — as deterministic state machines on simnet.
//
// An ensemble of servers distributed across regions runs a ZAB-style
// quorum-commit protocol: the leader assigns monotonically increasing zxids
// to writes, proposes them to followers, commits on quorum ack, and commits
// reach every replica in zxid order. If the leader fails, a follower is
// converted into a new leader. Each cluster designates observer servers that
// keep fully replicated read-only copies of the leader's data and receive
// committed writes asynchronously; per-server proxies connect to observers
// and set watches, forming the three-level leader→observer→proxy high-fanout
// push tree.
//
// One fact travels down that tree — path P is now at (version, zxid, digest,
// bytes), or is gone — as one value, Update: live push, watch event, fetch
// reply and catch-up alike. No replica keeps a log of past writes; one that fell
// behind reports its last zxid and is sent state (DataTree.ChangedAfter).
package zeus

import (
	"sort"
	"time"

	"configerator/internal/intern"
	"configerator/internal/vcs"
)

// Record is one versioned path in the data tree.
type Record struct {
	Path    string
	Data    []byte // immutable: shared with payloads, replicas and proxies
	Version int64  // per-path version, starts at 1
	Zxid    int64  // global transaction id of the last write
	Hash    uint64 // content hash of Data (vcs.HashBytes)
	// At is when the leader accepted the write (virtual time). Followers
	// and observers that rebuild ops from pushes may not carry it; the
	// authoritative copy lives in the leader's tree, which is where
	// convergence watermarks are read.
	At time.Time
}

// WriteOp is one write as the ensemble proposes and commits it. Replicas
// apply ops in zxid order, which is what gives every server the same eventual
// view in the same order (§3.4 data consistency).
type WriteOp struct {
	Zxid    int64
	Path    string
	Data    []byte
	Version int64
	Delete  bool
	// At is the leader-assigned accept time, stamped in onWrite so it is
	// identical on every replica the proposal reaches.
	At time.Time
}

// DataTree is the replicated path→record store: the live records plus, until
// a deleted path is written again, the zxid of its delete. Its size follows
// the number of paths, not the number of writes.
type DataTree struct {
	records map[string]*Record
	tombs   map[string]int64 // deleted path → zxid of the delete
	applied int64            // highest zxid applied
}

// NewDataTree returns an empty tree.
func NewDataTree() *DataTree {
	return &DataTree{records: make(map[string]*Record), tombs: make(map[string]int64)}
}

// Apply applies one op if it is newer than anything applied; stale or
// duplicate ops (zxid <= applied) are ignored, making Apply idempotent. The
// op's bytes come from outside the tree (a client write), so this is where
// they are born as a record: copied once and hashed once.
func (t *DataTree) Apply(op WriteOp) bool {
	if op.Zxid <= t.applied || op.Delete {
		return t.adopt(op, nil, 0) // stale, or a delete: no content to take in
	}
	data := make([]byte, len(op.Data))
	copy(data, op.Data)
	return t.adopt(op, data, vcs.HashBytes(data))
}

// adopt is Apply for content that is already immutable bytes with a known
// digest (a resolved Payload, or Apply's own copy): the record takes data by
// reference and carries hash as its own, so a version is neither copied nor
// hashed again at each replica it reaches.
func (t *DataTree) adopt(op WriteOp, data []byte, hash uint64) bool {
	if op.Zxid <= t.applied {
		return false
	}
	// Canonicalize the path: every replica's records and watch tables key by
	// the same shared string instance instead of per-message copies.
	op.Path = intern.Path(op.Path)
	t.applied = op.Zxid
	if op.Delete {
		delete(t.records, op.Path)
		t.tombs[op.Path] = op.Zxid
		return true
	}
	delete(t.tombs, op.Path)
	t.records[op.Path] = &Record{Path: op.Path, Data: data, Version: op.Version,
		Zxid: op.Zxid, Hash: hash, At: op.At}
	return true
}

// take applies one shipped update — payload resolved against the record it
// replaces, verified bytes adopted by reference — and returns that record, the
// delta base for what is pushed further down. A stale update is a no-op; on
// error (a delta on another base, content not hashing to its claim) so is this.
func (t *DataTree) take(u Update) (old *Record, err error) {
	old = t.records[u.Path]
	var data, base []byte
	var hash, baseHash uint64
	if old != nil {
		base, baseHash = old.Data, old.Hash
	}
	if !u.Delete {
		if data, hash, err = u.Payload.Resolve(base, baseHash); err != nil {
			return old, err
		}
	}
	t.adopt(WriteOp{Zxid: u.Zxid, Path: u.Path, Version: u.Version, Delete: u.Delete}, data, hash)
	return old, nil
}

// Watermark is the committed high-water mark of one path: the (zxid,
// content-hash) pair a fully-converged replica must serve, plus the
// leader accept time the convergence monitor measures time-to-head
// against.
type Watermark struct {
	Path    string
	Zxid    int64
	Version int64
	Hash    uint64
	At      time.Time
}

// Watermarks exports the committed high-water mark of every live path,
// sorted by path — the monitor's per-sweep view of "where the fleet
// should be".
func (t *DataTree) Watermarks() []Watermark {
	out := make([]Watermark, 0, len(t.records))
	for _, r := range t.records {
		out = append(out, Watermark{Path: r.Path, Zxid: r.Zxid,
			Version: r.Version, Hash: r.Hash, At: r.At})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Get returns the record at path (nil if absent).
func (t *DataTree) Get(path string) *Record { return t.records[path] }

// NextVersion returns the version the next write to path should carry.
func (t *DataTree) NextVersion(path string) int64 {
	if r := t.records[path]; r != nil {
		return r.Version + 1
	}
	return 1
}

// LastZxid reports the highest applied zxid.
func (t *DataTree) LastZxid() int64 { return t.applied }

// DeletedAt reports the zxid of path's delete (0 if live or never written).
func (t *DataTree) DeletedAt(path string) int64 { return t.tombs[path] }

// ChangedAfter is what a replica that has applied everything through zxid
// after is missing: each path written or deleted since, once, as the whole
// body of its newest version (or its removal), in zxid order. Applied in that
// order it leaves the replica with this tree's records, digests and LastZxid:
// the newest op of all is always some path's newest.
func (t *DataTree) ChangedAfter(after int64) []Update {
	if after >= t.applied {
		return nil // the steady state: a caught-up replica re-registering
	}
	var out []Update
	for _, r := range t.records {
		if r.Zxid > after {
			out = append(out, Update{Path: r.Path, Version: r.Version, Zxid: r.Zxid,
				Payload: Payload{Full: r.Data, NewHash: r.Hash}})
		}
	}
	for path, zxid := range t.tombs {
		if zxid > after {
			out = append(out, Update{Path: path, Zxid: zxid, Delete: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Zxid < out[j].Zxid })
	return out
}

// Paths returns all live paths, sorted (for tests).
func (t *DataTree) Paths() []string {
	out := make([]string, 0, len(t.records))
	for p := range t.records {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Size reports the number of live paths.
func (t *DataTree) Size() int { return len(t.records) }
