package zeus

import (
	"sync"

	"configerator/internal/simnet"
	"configerator/internal/vcs"
)

// ---- Ensemble protocol messages ----

// msgHeartbeat is sent by the leader to followers periodically.
type msgHeartbeat struct {
	Epoch int64
}

// msgTickLeader fires the leader's heartbeat timer.
type msgTickLeader struct{}

// msgTickFollower fires the follower's election-timeout check.
type msgTickFollower struct{}

// msgProbe starts an election: the candidate advertises its log position.
type msgProbe struct {
	Term     int64
	LastZxid int64
}

// msgProbeReply answers a probe with the replier's log position.
type msgProbeReply struct {
	Term     int64
	LastZxid int64
}

// msgElectionDecide fires after the candidate's vote-collection window.
type msgElectionDecide struct {
	Term int64
}

// msgNewLeader announces a won election.
type msgNewLeader struct {
	Term     int64
	LastZxid int64
}

// msgSyncRequest asks the leader for a catch-up from LastZxid (msgUpdates).
type msgSyncRequest struct {
	LastZxid int64
}

// msgProposeBatch carries one proposal wave — a group-committed batch of
// writes — to followers. One wave costs one durable log write and one ack
// round at each follower, however many writes it coalesces.
type msgProposeBatch struct {
	Epoch int64
	Ops   []WriteOp
}

// msgAckBatch acknowledges a whole wave, named by its last zxid.
type msgAckBatch struct {
	Epoch int64
	End   int64
}

// msgCommitBatch tells followers to apply a run of committed proposals, in
// zxid order.
type msgCommitBatch struct {
	Epoch int64
	Zxids []int64
}

// msgLogDone is the self-timer that fires when a proposal wave's durable
// log write completes; only then may the server acknowledge the wave
// (leader: count its own ack; follower: send msgAckBatch).
type msgLogDone struct {
	Epoch  int64
	Leader simnet.NodeID
	End    int64 // the wave's last zxid
}

// ---- Client protocol ----

// MsgWrite is a client write request (exported so drivers can build them).
type MsgWrite struct {
	ReqID  int64
	Path   string
	Data   []byte
	Delete bool
}

// MsgWriteReply reports the outcome of a write.
type MsgWriteReply struct {
	ReqID   int64
	OK      bool
	Zxid    int64
	Version int64
	// Redirect is the leader to retry against when OK is false and the
	// receiving server was not the leader ("" if unknown).
	Redirect simnet.NodeID
}

// ---- Delta-encoded distribution payloads ----

// payloadHeaderBytes is the on-wire framing charged for every payload: two
// content hashes, a length, and flags.
const payloadHeaderBytes = 24

// updateHeaderBytes is the per-update framing beyond the payload: version,
// zxid, and the path-length prefix (the path itself is charged separately).
const updateHeaderBytes = 16

// Payload carries a record's content either as a full snapshot or as a
// delta against a base version the receiver is believed to hold. Content
// moves down the tree as immutable bytes plus the digest computed when they
// were born: a receiver checks its base by comparing the digest it already
// holds against BaseHash, and Resolve hands back the new content together
// with its verified digest, so nothing downstream hashes again. Any mismatch
// is a hash miss and the receiver falls back to a full-snapshot fetch or
// resync.
//
// Full, and the bytes Resolve returns, are shared by every receiver of the
// message (and by whatever they store them in — data trees, proxy snapshots,
// disk caches). They must never be written.
type Payload struct {
	Full     []byte // the complete content (when IsDelta is false)
	Delta    []byte // vcs.MakeDelta output (when IsDelta is true)
	BaseHash uint64 // content hash of the base the delta applies to
	NewHash  uint64 // content hash of the resulting content
	IsDelta  bool

	// cell is shared by every copy of one message (a broadcast hands all
	// recipients the same payload), so the content is materialized and
	// verified once per message rather than once per receiver. It dies with
	// the message. A literal Payload has none and resolves unshared.
	cell *resolveCell
}

// resolveCell holds the outcome of a payload's one materialization: the
// bytes verified against NewHash, or why they could not be produced.
type resolveCell struct {
	once sync.Once
	data []byte
	err  error
}

// WireSize is the bytes this payload occupies on the wire.
func (p Payload) WireSize() int {
	if p.IsDelta {
		return len(p.Delta) + payloadHeaderBytes
	}
	return len(p.Full) + payloadHeaderBytes
}

// Resolve materializes the payload's content given the receiver's current
// bytes for the path and the digest the receiver holds for them (nil, 0 when
// it holds nothing). It returns the content and its digest, or ErrBadDelta
// (wrapped by vcs) on any hash miss — a base other than the one the delta was
// made against, a delta that does not apply, a result or full body that does
// not hash to NewHash — which callers must treat as "request a full
// snapshot". Receivers whose base digest equals BaseHash hold identical
// bytes, so the first of them to arrive does the work on its own base and the
// rest share the verified result.
func (p Payload) Resolve(base []byte, baseHash uint64) ([]byte, uint64, error) {
	if p.IsDelta && baseHash != p.BaseHash {
		return nil, 0, vcs.ErrBadDelta
	}
	c := p.cell
	if c == nil {
		c = new(resolveCell)
	}
	c.once.Do(func() { c.data, c.err = p.materialize(base) })
	if c.err != nil {
		return nil, 0, c.err
	}
	return c.data, p.NewHash, nil
}

// materialize builds the content from the base the delta was made against
// and verifies it — the one place a pushed version is hashed after its birth.
func (p Payload) materialize(base []byte) ([]byte, error) {
	out := p.Full
	if p.IsDelta {
		var err error
		if out, err = vcs.ApplyDelta(base, p.Delta); err != nil {
			return nil, err
		}
	}
	if vcs.HashBytes(out) != p.NewHash {
		return nil, vcs.ErrBadDelta
	}
	return out, nil
}

// MakePayload builds the cheapest payload that turns old into cur: a delta
// when the receiver has a base (old != nil) and the delta beats shipping the
// full content, else a full snapshot. The digests are the records' own.
func MakePayload(old, cur *Record) Payload {
	if old != nil {
		if d := vcs.MakeDelta(old.Data, cur.Data); d != nil {
			return Payload{Delta: d, BaseHash: old.Hash, NewHash: cur.Hash,
				IsDelta: true, cell: new(resolveCell)}
		}
	}
	return Payload{Full: cur.Data, NewHash: cur.Hash, cell: new(resolveCell)}
}

// Update is the one shape in which a record change moves down the tree —
// leader pushes and catch-ups, observer watch events and fetch replies: path
// is now at (Version, Zxid) with the content Payload resolves to, or, Delete,
// is gone as of Zxid (no version, no payload).
type Update struct {
	Path    string
	Version int64
	Zxid    int64
	Delete  bool
	Payload Payload
}

// WireSize is the bytes this update occupies on the wire.
func (u Update) WireSize() int {
	size := len(u.Path) + updateHeaderBytes
	if !u.Delete {
		size += u.Payload.WireSize()
	}
	return size
}

// ---- Observer protocol ----

// msgObserverRegister subscribes an observer to the leader's commit stream.
// It doubles as the hash-miss fallback: an observer that cannot apply a
// delta re-registers with its last zxid and the leader replies with a
// msgUpdates catch-up of everything after it.
type msgObserverRegister struct {
	LastZxid int64
}

// msgUpdates is the leader's one update message, in zxid order: a live commit
// run pushed to observers (delta-encoded where possible), or the catch-up
// (DataTree.ChangedAfter) answering an observer's registration or a
// follower's sync request.
type msgUpdates struct {
	Epoch   int64
	Updates []Update
}

// msgTickObserver fires the observer's periodic re-register timer.
type msgTickObserver struct{}

// ---- Proxy-facing protocol (served by observers) ----

// MsgFetch asks an observer for a path's current record, optionally
// leaving a watch. Have/HaveHash advertise the content the proxy already
// holds (from memory or its disk cache) so the observer can answer with
// "not modified" or a delta instead of the full config.
type MsgFetch struct {
	ReqID    int64
	Path     string
	Watch    bool
	Have     bool
	HaveHash uint64
}

// MsgFetchReply answers a fetch with the path's current state (Delete = it
// does not exist). NotModified: the content the proxy advertised is current,
// and the update carries its version and zxid but no payload.
type MsgFetchReply struct {
	ReqID       int64
	NotModified bool
	Update
}

// WireSize is the bytes this reply occupies on the wire.
func (m MsgFetchReply) WireSize() int {
	if m.NotModified {
		return len(m.Path) + updateHeaderBytes
	}
	return m.Update.WireSize()
}

// MsgWatchEvent notifies a watching proxy that a path changed. The new
// content rides along (push model: no extra round trip), delta-encoded
// against the previously notified version when possible.
type MsgWatchEvent struct {
	Update
}

// MsgUnwatch removes a proxy's watch on a path.
type MsgUnwatch struct {
	Path string
}

// MsgPing lets proxies health-check their observer. A proxy sends it only
// while its keep-alive runs: after a fault, until a ping is answered.
type MsgPing struct{}

// MsgPong answers a ping.
type MsgPong struct{}
