package zeus

import (
	"sort"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// Role is an ensemble member's current role.
type Role int

// Ensemble roles.
const (
	RoleFollower Role = iota
	RoleCandidate
	RoleLeader
)

// Timing constants for the ensemble protocol. The heartbeat keeps
// followership cheap; the election timeout is staggered per member index so
// that elections rarely duel.
const (
	heartbeatInterval   = 500 * time.Millisecond
	electionTimeoutBase = 2 * time.Second
	electionStagger     = 400 * time.Millisecond
	electionWindow      = 300 * time.Millisecond
	observerRegisterGap = 2 * time.Second
	// observerSessionTTL expires an observer session at the leader when the
	// observer stops re-registering (crashed or partitioned away): the
	// leader must not push commit batches into a dead link forever. A
	// recovered observer re-registers with its last zxid and is sent a
	// catch-up.
	observerSessionTTL = 3 * observerRegisterGap
)

// Group-commit tuning. Every proposal wave costs one durable log write
// (logSyncDelay) at the leader and at each follower before it may be
// acknowledged — the disk force that makes a commit survive a crash. Group
// commit amortizes that cost: writes arriving while a wave is in flight
// coalesce into the next wave, so one log write and one ack round commit N
// writes. A solitary write proposes immediately (no added latency); up to
// maxInflightWaves waves pipeline so the next batch proposes while the
// previous one commits.
const (
	logSyncDelay     = 10 * time.Millisecond
	maxInflightWaves = 2
	maxWaveOps       = 128
)

// zxidEpochShift packs the epoch into the high bits of the zxid so that a
// new leader's transactions always order after every prior epoch's.
const zxidEpochShift = 32

// proposal is one client write the leader has ordered but not yet committed.
type proposal struct {
	op     WriteOp
	client simnet.NodeID
	reqID  int64
}

// wave is one proposal wave in flight at the leader. The wave is the unit
// that is logged, acknowledged and committed: its writes, in zxid order,
// share one ack set.
type wave struct {
	props []proposal
	acks  map[simnet.NodeID]bool // members whose log holds the wave
}

// end is the wave's last zxid, which names it in log and ack messages.
func (w *wave) end() int64 { return w.props[len(w.props)-1].op.Zxid }

// Server is one ensemble member (leader or follower).
type Server struct {
	id      simnet.NodeID
	index   int // position in the member list, staggers election timeouts
	members []simnet.NodeID

	role     Role
	epoch    int64
	leaderID simnet.NodeID
	tree     *DataTree

	// Leader state. observers maps each registered observer to the instant
	// it last re-registered; sessions silent past observerSessionTTL expire.
	counter    int64
	versionSeq map[string]int64 // highest version assigned per path (incl. uncommitted)
	observers  map[simnet.NodeID]time.Time

	// Group-commit state (leader): writes waiting for the next proposal
	// wave, then the waves in flight, oldest first. Zxids are assigned in
	// arrival order, so both are in zxid order and commits come off the
	// front of waves.
	batchBuf []proposal
	waves    []*wave

	// logBusyUntil models the single durable log device: wave log writes
	// serialize behind each other at logSyncDelay apiece.
	logBusyUntil time.Time

	// Follower state.
	lastLeaderContact time.Time
	uncommitted       map[int64]WriteOp

	// Candidate state.
	probeTerm    int64
	probeReplies map[simnet.NodeID]int64 // replier -> lastZxid

	// needSync is set after a restart: the node may have missed commits
	// while down and must catch up from the leader even if the epoch is
	// unchanged.
	needSync bool

	started bool

	// Obs, when set, receives a propagation event for every write this
	// member commits as leader (nil = no instrumentation).
	Obs *obs.Registry
}

// NewServer constructs an ensemble member; register it on the network and
// then call Start via the ensemble helper.
func NewServer(id simnet.NodeID, index int, members []simnet.NodeID) *Server {
	return &Server{
		id:          id,
		index:       index,
		members:     members,
		tree:        NewDataTree(),
		versionSeq:  make(map[string]int64),
		observers:   make(map[simnet.NodeID]time.Time),
		uncommitted: make(map[int64]WriteOp),
	}
}

// Tree exposes the replica state (read-only use in tests and benches).
func (s *Server) Tree() *DataTree { return s.tree }

// Role reports the server's current role.
func (s *Server) Role() Role { return s.role }

// Epoch reports the server's current epoch.
func (s *Server) Epoch() int64 { return s.epoch }

// ObserverCount reports how many observer sessions this server (when
// leader) currently considers live.
func (s *Server) ObserverCount() int { return len(s.observers) }

func (s *Server) quorum() int { return len(s.members)/2 + 1 }

func (s *Server) electionTimeout() time.Duration {
	return electionTimeoutBase + time.Duration(s.index)*electionStagger
}

func (s *Server) othersDo(ctx *simnet.Context, fn func(peer simnet.NodeID)) {
	for _, m := range s.members {
		if m != s.id {
			fn(m)
		}
	}
}

// HandleMessage implements simnet.Handler.
func (s *Server) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if !s.started {
		// First event (the bootstrap timer) initializes liveness tracking;
		// the tick handler below re-arms its own chain.
		s.started = true
		s.lastLeaderContact = ctx.Now()
	}
	switch m := msg.(type) {
	case msgTickFollower:
		s.onFollowerTick(ctx)
	case msgTickLeader:
		s.onLeaderTick(ctx)
	case msgHeartbeat:
		s.onHeartbeat(ctx, from, m)
	case msgProbe:
		s.onProbe(ctx, from, m)
	case msgProbeReply:
		s.onProbeReply(ctx, from, m)
	case msgElectionDecide:
		s.onElectionDecide(ctx, m)
	case msgNewLeader:
		s.onNewLeader(ctx, from, m)
	case msgSyncRequest:
		s.onSyncRequest(ctx, from, m)
	case msgUpdates:
		s.onCatchUp(ctx, m)
	case MsgWrite:
		s.onWrite(ctx, from, m)
	case msgProposeBatch:
		s.onProposeBatch(ctx, from, m)
	case msgLogDone:
		s.onLogDone(ctx, m)
	case msgAckBatch:
		s.onAckBatch(ctx, from, m)
	case msgCommitBatch:
		s.onCommitBatch(ctx, from, m)
	case msgObserverRegister:
		s.onObserverRegister(ctx, from, m)
	}
}

// OnRestart implements simnet.Restarter: a recovered member rejoins as a
// follower and re-arms its election-timeout chain.
func (s *Server) OnRestart(ctx *simnet.Context) {
	s.role = RoleFollower
	s.lastLeaderContact = ctx.Now()
	s.uncommitted = make(map[int64]WriteOp)
	s.resetWaves()
	s.needSync = true
	if s.leaderID != "" && s.leaderID != s.id {
		ctx.Send(s.leaderID, msgSyncRequest{LastZxid: s.tree.LastZxid()})
	}
	ctx.SetTimer(s.electionTimeout()/2, msgTickFollower{})
}

// resetWaves drops all leader-side batching state (deposed, restarted, or
// newly elected). Buffered writes are lost — their clients time out and
// retry, the standard at-least-once contract.
func (s *Server) resetWaves() {
	s.batchBuf = nil
	s.waves = nil
	s.logBusyUntil = time.Time{}
}

// ---- Follower / election ----

func (s *Server) onFollowerTick(ctx *simnet.Context) {
	if s.role == RoleLeader {
		return // leader uses its own tick
	}
	ctx.SetTimer(s.electionTimeout()/2, msgTickFollower{})
	if ctx.Now().Sub(s.lastLeaderContact) < s.electionTimeout() {
		return
	}
	s.startElection(ctx, s.epoch+1)
}

func (s *Server) startElection(ctx *simnet.Context, term int64) {
	if s.role == RoleLeader || (s.role == RoleCandidate && s.probeTerm >= term) {
		return
	}
	s.role = RoleCandidate
	s.probeTerm = term
	s.probeReplies = make(map[simnet.NodeID]int64)
	s.othersDo(ctx, func(peer simnet.NodeID) {
		ctx.Send(peer, msgProbe{Term: term, LastZxid: s.tree.LastZxid()})
	})
	ctx.SetTimer(electionWindow, msgElectionDecide{Term: term})
}

func (s *Server) onProbe(ctx *simnet.Context, from simnet.NodeID, m msgProbe) {
	if m.Term <= s.epoch {
		return // stale candidacy
	}
	ctx.Send(from, msgProbeReply{Term: m.Term, LastZxid: s.tree.LastZxid()})
	// Defer our own timeout: someone is already running an election.
	s.lastLeaderContact = ctx.Now()
	// If we are strictly better positioned than the candidate, contest the
	// election so the most up-to-date member wins.
	if s.role != RoleLeader && s.betterThan(m.LastZxid, from) {
		s.startElection(ctx, m.Term)
	}
}

// betterThan reports whether this server outranks a candidate with the
// given log position (higher zxid wins; ties break to the smaller id).
func (s *Server) betterThan(candZxid int64, candID simnet.NodeID) bool {
	my := s.tree.LastZxid()
	if my != candZxid {
		return my > candZxid
	}
	return s.id < candID
}

func (s *Server) onProbeReply(ctx *simnet.Context, from simnet.NodeID, m msgProbeReply) {
	if s.role != RoleCandidate || m.Term != s.probeTerm {
		return
	}
	s.probeReplies[from] = m.LastZxid
}

func (s *Server) onElectionDecide(ctx *simnet.Context, m msgElectionDecide) {
	if s.role != RoleCandidate || m.Term != s.probeTerm {
		return
	}
	// Count self plus repliers; require a quorum of reachable members.
	if len(s.probeReplies)+1 < s.quorum() {
		s.role = RoleFollower // retry after next timeout
		return
	}
	my := s.tree.LastZxid()
	for peer, zxid := range s.probeReplies {
		if zxid > my || (zxid == my && peer < s.id) {
			// A better-positioned peer exists; let it win (we nudged it in
			// onProbe). Stand down.
			s.role = RoleFollower
			s.lastLeaderContact = ctx.Now()
			return
		}
	}
	s.becomeLeader(ctx, m.Term)
}

func (s *Server) becomeLeader(ctx *simnet.Context, term int64) {
	s.role = RoleLeader
	s.epoch = term
	s.leaderID = s.id
	s.counter = 0
	s.versionSeq = make(map[string]int64)
	s.observers = make(map[simnet.NodeID]time.Time)
	s.uncommitted = make(map[int64]WriteOp)
	s.resetWaves()
	s.othersDo(ctx, func(peer simnet.NodeID) {
		ctx.Send(peer, msgNewLeader{Term: term, LastZxid: s.tree.LastZxid()})
	})
	ctx.SetTimer(heartbeatInterval, msgTickLeader{})
}

func (s *Server) onNewLeader(ctx *simnet.Context, from simnet.NodeID, m msgNewLeader) {
	if m.Term < s.epoch {
		return
	}
	s.role = RoleFollower
	s.epoch = m.Term
	s.leaderID = from
	s.lastLeaderContact = ctx.Now()
	s.uncommitted = make(map[int64]WriteOp)
	s.resetWaves()
	ctx.Send(from, msgSyncRequest{LastZxid: s.tree.LastZxid()})
}

func (s *Server) onLeaderTick(ctx *simnet.Context) {
	if s.role != RoleLeader {
		return
	}
	ctx.SetTimer(heartbeatInterval, msgTickLeader{})
	s.othersDo(ctx, func(peer simnet.NodeID) {
		ctx.Send(peer, msgHeartbeat{Epoch: s.epoch})
	})
	s.expireObservers(ctx)
}

// expireObservers drops observer sessions that stopped re-registering.
func (s *Server) expireObservers(ctx *simnet.Context) {
	for ob, seen := range s.observers {
		if ctx.Now().Sub(seen) > observerSessionTTL {
			delete(s.observers, ob)
			s.Obs.Add("zeus.observer.expired", 1)
		}
	}
}

func (s *Server) onHeartbeat(ctx *simnet.Context, from simnet.NodeID, m msgHeartbeat) {
	if m.Epoch < s.epoch {
		return
	}
	if m.Epoch > s.epoch || s.leaderID != from || s.needSync {
		s.epoch = m.Epoch
		s.leaderID = from
		s.role = RoleFollower
		s.needSync = false
		ctx.Send(from, msgSyncRequest{LastZxid: s.tree.LastZxid()})
	}
	s.lastLeaderContact = ctx.Now()
}

// onSyncRequest answers a follower, even with nothing to ship: the reply
// doubles as leader contact.
func (s *Server) onSyncRequest(ctx *simnet.Context, from simnet.NodeID, m msgSyncRequest) {
	if s.role != RoleLeader {
		return
	}
	updates, size := s.catchUp(m.LastZxid)
	ctx.SendSized(from, msgUpdates{Epoch: s.epoch, Updates: updates}, size)
}

// catchUp builds the answer for a replica — follower or observer — that has
// applied everything through lastZxid, and its size on the wire (path, update
// framing and body: a whole body ships without the payload's delta framing).
func (s *Server) catchUp(lastZxid int64) (updates []Update, size int) {
	updates = s.tree.ChangedAfter(lastZxid)
	for _, u := range updates {
		size += len(u.Path) + updateHeaderBytes + len(u.Payload.Full)
	}
	return updates, size
}

// onCatchUp applies the leader's answer to this follower's sync request.
func (s *Server) onCatchUp(ctx *simnet.Context, m msgUpdates) {
	if m.Epoch < s.epoch {
		return
	}
	for _, u := range m.Updates {
		if _, err := s.tree.take(u); err != nil {
			break // refused content: nothing at or past it is applied
		}
	}
	s.lastLeaderContact = ctx.Now()
}

// ---- Write path ----

func (s *Server) onWrite(ctx *simnet.Context, from simnet.NodeID, m MsgWrite) {
	if s.role != RoleLeader {
		ctx.Send(from, MsgWriteReply{ReqID: m.ReqID, OK: false, Redirect: s.leaderID})
		return
	}
	s.counter++
	zxid := s.epoch<<zxidEpochShift | s.counter
	version := s.tree.NextVersion(m.Path)
	if v := s.versionSeq[m.Path] + 1; v > version {
		version = v
	}
	s.versionSeq[m.Path] = version
	op := WriteOp{Zxid: zxid, Path: m.Path, Data: m.Data, Version: version, Delete: m.Delete, At: ctx.Now()}
	s.batchBuf = append(s.batchBuf, proposal{op: op, client: from, reqID: m.ReqID})
	s.maybePropose(ctx)
}

// maybePropose drains the write buffer into proposal waves (group commit):
// the buffer rides as one wave and at most maxInflightWaves pipeline.
func (s *Server) maybePropose(ctx *simnet.Context) {
	if s.role != RoleLeader || len(s.batchBuf) == 0 {
		return
	}
	for len(s.batchBuf) > 0 && len(s.waves) < maxInflightWaves {
		n := min(len(s.batchBuf), maxWaveOps)
		props := s.batchBuf[:n:n]
		s.batchBuf = append([]proposal(nil), s.batchBuf[n:]...)
		s.proposeWave(ctx, props)
	}
}

// proposeWave sends one multi-op proposal to every follower and starts the
// leader's own durable log write for it.
func (s *Server) proposeWave(ctx *simnet.Context, props []proposal) {
	ops := make([]WriteOp, len(props))
	size := 0
	for i, p := range props {
		ops[i] = p.op
		size += len(p.op.Path) + updateHeaderBytes + len(p.op.Data)
	}
	w := &wave{props: props, acks: make(map[simnet.NodeID]bool)}
	s.waves = append(s.waves, w)
	s.Obs.Add("zeus.propose.waves", 1)
	s.Obs.Add("zeus.propose.ops", int64(len(ops)))
	s.othersDo(ctx, func(peer simnet.NodeID) {
		ctx.SendSized(peer, msgProposeBatch{Epoch: s.epoch, Ops: ops}, size)
	})
	s.scheduleLog(ctx, s.epoch, s.id, w.end())
}

// scheduleLog queues one durable log write for a wave on this server's log
// device; waves serialize behind each other at logSyncDelay apiece, which
// is exactly the cost group commit amortizes.
func (s *Server) scheduleLog(ctx *simnet.Context, epoch int64, leader simnet.NodeID, end int64) {
	now := ctx.Now()
	if s.logBusyUntil.Before(now) {
		s.logBusyUntil = now
	}
	s.logBusyUntil = s.logBusyUntil.Add(logSyncDelay)
	ctx.SetTimer(s.logBusyUntil.Sub(now), msgLogDone{Epoch: epoch, Leader: leader, End: end})
}

// onLogDone fires when a wave's log write is durable: the leader counts its
// own ack, a follower acknowledges the whole wave to the leader.
func (s *Server) onLogDone(ctx *simnet.Context, m msgLogDone) {
	if m.Epoch != s.epoch {
		return // logged under a superseded leadership
	}
	if m.Leader == s.id {
		if s.role == RoleLeader {
			s.ackWave(ctx, m.End, s.id)
		}
		return
	}
	if m.Leader != s.leaderID {
		return
	}
	ctx.Send(m.Leader, msgAckBatch{Epoch: m.Epoch, End: m.End})
}

func (s *Server) onProposeBatch(ctx *simnet.Context, from simnet.NodeID, m msgProposeBatch) {
	if m.Epoch < s.epoch || from != s.leaderID {
		return
	}
	s.lastLeaderContact = ctx.Now()
	for _, op := range m.Ops {
		s.uncommitted[op.Zxid] = op
	}
	// Ack only once the wave is durably logged (one log write per wave,
	// not per op).
	s.scheduleLog(ctx, m.Epoch, from, m.Ops[len(m.Ops)-1].Zxid)
}

func (s *Server) onAckBatch(ctx *simnet.Context, from simnet.NodeID, m msgAckBatch) {
	if s.role == RoleLeader && m.Epoch == s.epoch {
		s.ackWave(ctx, m.End, from)
	}
}

// ackWave records that member's log holds the in-flight wave ending at end.
func (s *Server) ackWave(ctx *simnet.Context, end int64, member simnet.NodeID) {
	for _, w := range s.waves {
		if w.end() == end {
			w.acks[member] = true
		}
	}
	s.maybeCommit(ctx)
}

// maybeCommit commits waves from the front of the queue, in strict zxid
// order: a wave commits only when it has quorum AND every earlier wave has
// committed. This preserves the in-order delivery guarantee of the commit
// log (§3.4). The whole committed run — one wave, or several when a later
// one reached quorum first — fans out as ONE commit message to followers and
// ONE delta-encoded batch per observer.
func (s *Server) maybeCommit(ctx *simnet.Context) {
	var committed []int64
	var updates []Update
	size := 0 // wire bytes of updates
	for len(s.waves) > 0 && len(s.waves[0].acks) >= s.quorum() {
		for _, p := range s.waves[0].props {
			// Capture the outgoing record first: it is the delta base for
			// this op's push down the tree.
			old := s.tree.Get(p.op.Path)
			applied := s.tree.Apply(p.op)
			s.Obs.PathEvent(p.op.Path, obs.PropEvent{
				Stage: obs.EvZeusCommit, Node: string(s.id), Zxid: p.op.Zxid, At: ctx.Now(),
			})
			if applied { // a stale op left no record to push
				u := s.makeUpdate(old, p.op)
				updates = append(updates, u)
				size += u.WireSize()
			}
			if p.client != "" {
				ctx.Send(p.client, MsgWriteReply{ReqID: p.reqID, OK: true, Zxid: p.op.Zxid, Version: p.op.Version})
			}
			committed = append(committed, p.op.Zxid)
		}
		s.waves = s.waves[1:]
	}
	if len(committed) == 0 {
		return
	}
	s.Obs.Add("zeus.commit.batches", 1)
	s.Obs.Add("zeus.commit.ops", int64(len(committed)))
	s.othersDo(ctx, func(peer simnet.NodeID) {
		ctx.Send(peer, msgCommitBatch{Epoch: s.epoch, Zxids: committed})
	})
	s.pushToObservers(ctx, updates, size)
	s.maybePropose(ctx) // a slot in the pipeline is free
}

// pushToObservers fans a committed run out as one broadcast wave of size
// wire bytes. Recipients are sorted: iteration order decides which observer
// draws each latency sample from the network RNG, and map order would make
// otherwise-identical runs diverge. The batch payload (the updates slice) is
// shared by every recipient and its serialization is charged once for the
// wave.
func (s *Server) pushToObservers(ctx *simnet.Context, updates []Update, size int) {
	s.Obs.Add("zeus.push.bytes", int64(size))
	obsIDs := make([]simnet.NodeID, 0, len(s.observers))
	for ob := range s.observers {
		obsIDs = append(obsIDs, ob)
	}
	sort.Slice(obsIDs, func(i, j int) bool { return obsIDs[i] < obsIDs[j] })
	ctx.Broadcast(obsIDs, msgUpdates{Epoch: s.epoch, Updates: updates}, size)
}

// makeUpdate builds the distribution-tree update for a committed op:
// delta-encoded against the record it replaces when that beats a full
// snapshot.
func (s *Server) makeUpdate(old *Record, op WriteOp) Update {
	if op.Delete {
		return Update{Path: op.Path, Zxid: op.Zxid, Delete: true}
	}
	u := Update{Path: op.Path, Version: op.Version, Zxid: op.Zxid,
		Payload: MakePayload(old, s.tree.Get(op.Path))}
	if u.Payload.IsDelta {
		s.Obs.Add("zeus.push.delta", 1)
	} else {
		s.Obs.Add("zeus.push.full", 1)
	}
	return u
}

func (s *Server) onCommitBatch(ctx *simnet.Context, from simnet.NodeID, m msgCommitBatch) {
	if from != s.leaderID {
		return
	}
	s.lastLeaderContact = ctx.Now()
	for _, zxid := range m.Zxids {
		op, ok := s.uncommitted[zxid]
		if !ok {
			if s.tree.LastZxid() >= zxid {
				continue // already applied (e.g. via sync)
			}
			// Missed the proposal (e.g. we were briefly down): resync.
			ctx.Send(from, msgSyncRequest{LastZxid: s.tree.LastZxid()})
			return
		}
		s.tree.Apply(op)
		delete(s.uncommitted, zxid)
	}
}

// ---- Observers ----

func (s *Server) onObserverRegister(ctx *simnet.Context, from simnet.NodeID, m msgObserverRegister) {
	if s.role != RoleLeader {
		return
	}
	s.observers[from] = ctx.Now()
	// A caught-up observer re-registering (the steady state) gets no reply.
	if updates, size := s.catchUp(m.LastZxid); len(updates) > 0 {
		ctx.SendSized(from, msgUpdates{Epoch: s.epoch, Updates: updates}, size)
	}
}
