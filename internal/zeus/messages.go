package zeus

import (
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

// msgSyncRequest asks the leader for committed ops after LastZxid.
type msgSyncRequest struct {
	LastZxid int64
}

// msgSyncReply carries catch-up ops.
type msgSyncReply struct {
	Epoch int64
	Ops   []WriteOp
}

// msgProposeBatch carries one proposal wave — a group-committed batch of
// writes — to followers. One wave costs one durable log write and one ack
// round at each follower, however many writes it coalesces.
type msgProposeBatch struct {
	Epoch int64
	Ops   []WriteOp
}

// msgAckBatch acknowledges every proposal in a wave at once.
type msgAckBatch struct {
	Epoch int64
	Zxids []int64
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
	Zxids  []int64
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
// delta against a base version the receiver is believed to hold. The
// receiver verifies both hashes; any mismatch is a hash miss and the
// receiver falls back to a full-snapshot fetch or resync.
type Payload struct {
	Full     []byte // the complete content (when IsDelta is false)
	Delta    []byte // vcs.MakeDelta output (when IsDelta is true)
	BaseHash uint64 // content hash of the base the delta applies to
	NewHash  uint64 // content hash of the resulting content
	IsDelta  bool
}

// WireSize is the bytes this payload occupies on the wire.
func (p Payload) WireSize() int {
	if p.IsDelta {
		return len(p.Delta) + payloadHeaderBytes
	}
	return len(p.Full) + payloadHeaderBytes
}

// Resolve materializes the payload's content given the receiver's current
// bytes for the path. It returns ErrBadDelta (wrapped by vcs) on any hash
// miss, which callers must treat as "request a full snapshot".
func (p Payload) Resolve(old []byte) ([]byte, error) {
	if !p.IsDelta {
		return p.Full, nil
	}
	if vcs.HashBytes(old) != p.BaseHash {
		return nil, vcs.ErrBadDelta
	}
	out, err := vcs.ApplyDelta(old, p.Delta)
	if err != nil {
		return nil, err
	}
	if vcs.HashBytes(out) != p.NewHash {
		return nil, vcs.ErrBadDelta
	}
	return out, nil
}

// MakePayload builds the cheapest payload that turns old into new: a delta
// when the receiver has a base (old != nil) and the delta beats shipping the
// full content, else a full snapshot.
func MakePayload(old, new []byte) Payload {
	if old != nil {
		if d := vcs.MakeDelta(old, new); d != nil {
			return Payload{Delta: d, BaseHash: vcs.HashBytes(old),
				NewHash: vcs.HashBytes(new), IsDelta: true}
		}
	}
	return Payload{Full: new, NewHash: vcs.HashBytes(new)}
}

// Update is one record change shipped down the distribution tree
// (leader→observer pushes and observer→proxy watch events).
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

// updatesWireSize sums a batch's wire size.
func updatesWireSize(updates []Update) int {
	size := 0
	for _, u := range updates {
		size += u.WireSize()
	}
	return size
}

// ---- Observer protocol ----

// msgObserverRegister subscribes an observer to the leader's commit stream.
// It doubles as the hash-miss fallback: an observer that cannot apply a
// delta re-registers with its last zxid and the leader replies with full
// snapshots of everything after it.
type msgObserverRegister struct {
	LastZxid int64
}

// msgObserverSync carries catch-up ops (full snapshots) to an observer.
type msgObserverSync struct {
	Epoch int64
	Ops   []WriteOp
}

// msgObserverBatch streams one commit run — delta-encoded where possible —
// to an observer.
type msgObserverBatch struct {
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

// MsgFetchReply answers a fetch. Exactly one of three shapes: NotModified
// (the proxy's copy is current; no payload), a delta payload against the
// advertised hash, or a full snapshot.
type MsgFetchReply struct {
	ReqID       int64
	Path        string
	Exists      bool
	Version     int64
	Zxid        int64
	NotModified bool
	Payload     Payload
}

// WireSize is the bytes this reply occupies on the wire.
func (m MsgFetchReply) WireSize() int {
	size := len(m.Path) + updateHeaderBytes
	if m.Exists && !m.NotModified {
		size += m.Payload.WireSize()
	}
	return size
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

// MsgPing lets proxies health-check their observer.
type MsgPing struct{ ReqID int64 }

// MsgPong answers a ping.
type MsgPong struct{ ReqID int64 }
