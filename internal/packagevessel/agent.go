package packagevessel

import (
	"slices"
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

const (
	// chunkTimeout bounds one chunk fetch before the slot is reclaimed
	// (the assigned peer may have crashed mid-transfer). Every fetch has
	// the same bound, so deadlines come due in dispatch order.
	chunkTimeout = 30 * time.Second
	// manifestRetry re-requests an unanswered manifest fetch.
	manifestRetry = 10 * time.Second
	// maxNeedList caps the digests listed per msgWant.
	maxNeedList = 512
	// announceEvery pushes a standalone holder announcement once this
	// many verified chunks have accumulated — mid-transfer agents become
	// visible seeds for their cluster without waiting for completion.
	announceEvery = 4
	// fetchWindow is the agent-wide concurrent chunk fetch limit.
	fetchWindow = 8
	// perPeerInflight caps concurrent fetches aimed at one peer so a
	// popular holder's uplink is shared, not monopolized.
	perPeerInflight = 2
	// grantBatch is how many grants one tracker round trip asks for.
	grantBatch = 16
)

// Options configures an Agent. An agent has no settings, so it is empty;
// it stays because NewAgent's callers, bench/vessel_swarm.go among them,
// pass Options{}.
type Options struct{}

// TransferStats accounts one completed transfer.
type TransferStats struct {
	ChunksFetched  int   // chunks pulled over the wire for this transfer
	ChunksDeduped  int   // manifest chunks on disk already, or fetched for another package
	BytesFetched   int64 // logical bytes on the wire
	Resumed        bool  // transfer recovered from the journal after a crash
	ResumeVerified int   // chunks re-verified on disk during recovery
}

// flight is one in-flight chunk fetch. seq numbers the agent's fetches, so
// a deadline names the fetch it was set for and spares a later fetch of
// the same digest.
type flight struct {
	peer simnet.NodeID
	seq  uint64
}

// deadline is when (Unix ns) the fetch numbered seq of digest d is
// reclaimed, unless it has been answered by then.
type deadline struct {
	due int64
	d   blob.Digest
	seq uint64
}

// transfer is one package version in progress, and only its own state:
// the fetches that serve it, and the grants for them, are the agent's.
type transfer struct {
	manifest blob.Manifest
	origin   simnet.NodeID // registry (authoritative fallback)
	tracker  simnet.NodeID // swarm coordinator ("": origin is the only holder)
	// need holds the digests not verified yet, in flight or not; the
	// transfer is complete when it is empty.
	need map[blob.Digest]bool
	// order holds the still-needed digests in manifest order (compacted
	// lazily as chunks verify), so building a msgWant need list scans
	// remaining work, not the whole manifest.
	order    []blob.Digest
	started  time.Time
	wantOut  bool // a msgWant is outstanding
	retryOut bool // a backoff retry timer is armed
	stats    TransferStats
}

// Agent runs on every subscribed server: it receives metadata updates
// (via the Configerator proxy subscription), fetches the named manifest,
// and swarms the missing digests — several in parallel, capped per peer,
// every chunk verified against its content address before it is stored.
// It keeps one fetch schedule for all its transfers: the grants not yet
// used, the fetches in flight (one per digest, whichever transfers need
// it), the window, the per-peer caps and the deadline chain. A slot that
// frees is offered to every transfer, in package name order.
// Its maps are made on first write, so an idle agent costs what it holds.
type Agent struct {
	id  simnet.NodeID
	pl  simnet.Placement // where the agent lives, as the network recorded it
	net *simnet.Network

	store *blob.Store
	// transfers in progress, one per package (its newest version), in
	// package name order. An agent runs a handful at most, so a scan finds
	// one by name.
	transfers []*transfer
	// pending holds the grants not dispatched yet, in the order they are
	// tried (a few grant batches at most, so a scan finds a digest).
	pending  []grant
	inflight map[blob.Digest]flight
	// perPeer counts in-flight fetches by peer, one entry per peer with a
	// fetch in flight, so it never holds more than fetchWindow entries.
	perPeer map[simnet.NodeID]int
	fetches uint64 // fetches dispatched (flight.seq)
	// deadlines[spent:] holds the fetches' deadlines in dispatch order,
	// which is deadline order, so it spans at most one chunkTimeout of
	// dispatches. An answered fetch leaves its entry behind, dropped when
	// the timer reaches it. While the chain is not empty, one
	// msgFetchDeadline timer is armed for its front entry (armed).
	deadlines        []deadline
	spent            int
	armed            bool
	haveBuf          []blob.Digest // verified digests awaiting announcement
	pendingManifests map[string]Metadata
	avoid            []simnet.NodeID // peers quarantined, in quarantine order (deterministic Avoid lists)

	onComplete func(m blob.Manifest, took time.Duration, st TransferStats)

	// Stats.
	ChunksFetched     uint64
	ChunksFromOrigin  uint64
	ChunksFromPeers   uint64
	ChunksSameCluster uint64
	ChunksSameRegion  uint64
	ChunksCrossRegion uint64
	ChunksServed      uint64
	CorruptChunks     uint64
	ResumeVerified    uint64
}

// NewAgent creates an agent node.
func NewAgent(net *simnet.Network, id simnet.NodeID, p simnet.Placement, opts Options) *Agent {
	a := &Agent{id: id, net: net, store: blob.NewStore()}
	net.AddNode(id, p, a)
	a.pl = net.Placement(id)
	return a
}

// OnComplete registers the completion callback.
func (a *Agent) OnComplete(fn func(m blob.Manifest, took time.Duration, st TransferStats)) {
	a.onComplete = fn
}

// Store is the agent's durable chunk store.
func (a *Agent) Store() *blob.Store { return a.store }

// Complete reports whether the agent holds the full package version.
func (a *Agent) Complete(name string, version int64) bool {
	return a.store.Complete(name, version)
}

// Quarantined lists peers banned for serving corrupt chunks, in
// quarantine order.
func (a *Agent) Quarantined() []simnet.NodeID {
	return append([]simnet.NodeID(nil), a.avoid...)
}

// OnAnnounce reacts to a metadata update from the subscription path: it
// fetches the manifest the record names (verifying it against the
// metadata's digest) and starts or resumes the transfer. Stale metadata —
// a version at or below what we hold or are fetching — is ignored:
// consistency of the metadata drives consistency of the bulk content.
func (a *Agent) OnAnnounce(md Metadata) {
	if a.store.Complete(md.Name, md.Version) {
		return
	}
	if t := a.transfer(md.Name); t != nil && t.manifest.Version >= md.Version {
		return
	}
	if cur, ok := a.pendingManifests[md.Name]; ok && cur.Version >= md.Version {
		return
	}
	if a.pendingManifests == nil {
		a.pendingManifests = make(map[string]Metadata)
	}
	a.pendingManifests[md.Name] = md
	ctx := simnet.MakeContext(a.net, a.id)
	ctx.Send(md.Registry, msgGetManifest{Name: md.Name, Version: md.Version})
	ctx.SetTimer(manifestRetry, msgManifestRetry{Name: md.Name, Version: md.Version})
}

// startTransfer begins fetching a manifest. Chunks already in the store —
// from prior versions of this package or any other — are dedup hits and
// are not fetched again.
func (a *Agent) startTransfer(ctx *simnet.Context, m blob.Manifest, origin, tracker simnet.NodeID) {
	if a.store.Complete(m.Name, m.Version) {
		return
	}
	if cur := a.transfer(m.Name); cur != nil {
		if cur.manifest.Version >= m.Version {
			return
		}
		a.abandon(cur)
	}
	delete(a.pendingManifests, m.Name)
	missing := a.store.Missing(m)
	a.store.Begin(m, string(origin), string(tracker))
	a.start(ctx, &transfer{manifest: m, origin: origin, tracker: tracker,
		stats: TransferStats{ChunksDeduped: len(m.Distinct()) - len(missing)}}, missing)
}

// start tracks t, which needs the digests in missing, and asks for them;
// with none missing it finishes at once. Every transfer begins here, new
// or resumed.
func (a *Agent) start(ctx *simnet.Context, t *transfer, missing []blob.Digest) {
	t.need = make(map[blob.Digest]bool, len(missing))
	for _, d := range missing {
		t.need[d] = true
	}
	t.order, t.started = missing, ctx.Now()
	a.track(t)
	if len(t.need) == 0 {
		a.finish(ctx, t)
		return
	}
	a.requestGrants(ctx, t)
}

// abandon drops a transfer superseded by a newer version, and its journal.
// Its fetches stay in flight and its chunks on disk: content-addressed,
// either may serve the successor, and a chunk no transfer needs is dropped
// when it arrives.
func (a *Agent) abandon(t *transfer) {
	a.store.Abandon(t.manifest)
	a.untrack(t)
}

// flushHave drains the announce buffer.
func (a *Agent) flushHave() []blob.Digest {
	h := a.haveBuf
	a.haveBuf = nil
	return h
}

// needList returns the transfer's digests that are neither in flight nor
// granted, in manifest order, capped at maxNeedList. The order slice
// compacts down to the still-needed digests as a side effect, so repeated
// calls late in a transfer scan only the remaining work.
func (a *Agent) needList(t *transfer) []blob.Digest {
	live := t.order[:0]
	out := make([]blob.Digest, 0, min(len(t.order), maxNeedList))
	for _, d := range t.order {
		if !t.need[d] {
			continue // verified: drop from order
		}
		live = append(live, d)
		if _, ok := a.inflight[d]; !ok && len(out) < maxNeedList && !a.granted(d) {
			out = append(out, d)
		}
	}
	t.order = live
	return out
}

// granted reports whether a digest already has an undispatched grant.
func (a *Agent) granted(d blob.Digest) bool {
	for _, g := range a.pending {
		if g.Digest == d {
			return true
		}
	}
	return false
}

// needs reports whether some transfer needs d.
func (a *Agent) needs(d blob.Digest) bool {
	for _, t := range a.transfers {
		if t.need[d] {
			return true
		}
	}
	return false
}

// waiting reports whether t needs a digest that is not in flight.
func (a *Agent) waiting(t *transfer) bool {
	if len(t.need) > len(a.inflight) {
		return true
	}
	for d := range t.need {
		if _, ok := a.inflight[d]; !ok {
			return true
		}
	}
	return false
}

// requestGrants asks the tracker for the next batch, piggybacking newly
// verified digests as announcements.
func (a *Agent) requestGrants(ctx *simnet.Context, t *transfer) {
	if t.wantOut || t.retryOut {
		// One want in flight at a time — and none at all while a backoff
		// timer is armed: an empty grant means the swarm has no capacity
		// for us this tick, and immediate re-asking is just a want storm.
		return
	}
	need := a.needList(t)
	if len(need) == 0 {
		return
	}
	max := grantBatch - len(a.pending)
	if max <= 0 {
		return
	}
	if t.tracker == "" {
		// Metadata that names no tracker has exactly one holder, the
		// registry: the agent grants itself the batch from origin, and
		// dispatch paces it (window, per-peer cap, chunkTimeout) like any
		// grant. An origin quarantined for a corrupt chunk leaves no holder
		// to ask.
		if slices.Contains(a.avoid, t.origin) {
			return
		}
		for _, d := range need[:min(len(need), max)] {
			a.pending = append(a.pending, grant{Digest: d, Peer: t.origin})
		}
		a.dispatch(ctx)
		return
	}
	t.wantOut = true
	ctx.Send(t.tracker, msgWant{Have: a.flushHave(), Need: need, Max: max, Avoid: a.Quarantined()})
}

// dispatch issues pending grants while the window and per-peer caps allow,
// dropping those whose digest is in flight or needed by no transfer, or
// whose peer is quarantined. When half a batch or less is left, every
// transfer with a digest to fetch may ask for more, in name order.
func (a *Agent) dispatch(ctx *simnet.Context) {
	var deferred []grant
	for len(a.pending) > 0 && len(a.inflight) < fetchWindow {
		g := a.pending[0]
		a.pending = a.pending[1:]
		if _, ok := a.inflight[g.Digest]; ok || !a.needs(g.Digest) || slices.Contains(a.avoid, g.Peer) {
			continue
		}
		if a.perPeer[g.Peer] >= perPeerInflight {
			deferred = append(deferred, g)
			continue
		}
		if a.inflight == nil {
			a.inflight, a.perPeer = make(map[blob.Digest]flight), make(map[simnet.NodeID]int)
		}
		a.fetches++
		a.inflight[g.Digest] = flight{peer: g.Peer, seq: a.fetches}
		a.perPeer[g.Peer]++
		ctx.Send(g.Peer, msgGetChunk{Digest: g.Digest})
		a.setDeadline(ctx, deadline{due: ctx.Now().Add(chunkTimeout).UnixNano(), d: g.Digest, seq: a.fetches})
	}
	a.pending = append(a.pending, deferred...)
	if len(a.pending) <= grantBatch/2 {
		for _, t := range a.transfers {
			if a.waiting(t) {
				a.requestGrants(ctx, t)
			}
		}
	}
}

// pump runs where a fetch slot frees: it dispatches what the grants allow,
// then lets every transfer ask for more.
func (a *Agent) pump(ctx *simnet.Context) {
	a.dispatch(ctx)
	for _, t := range a.transfers {
		a.requestGrants(ctx, t)
	}
}

// HandleMessage implements simnet.Handler.
func (a *Agent) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case simnet.Restarted:
		a.resume(ctx)
	case msgAssign:
		a.onAssign(ctx, from, m)
	case msgChunk:
		a.onChunk(ctx, from, m)
	case msgFetchDeadline:
		a.onDeadline(ctx)
	case msgWantRetry:
		if t := a.transfer(m.Name); t != nil {
			t.retryOut = false
			a.requestGrants(ctx, t)
		}
	case msgGetChunk, msgGetManifest:
		if serve(ctx, a.store, from, msg) {
			a.ChunksServed++
		}
	case msgManifest:
		a.onManifestReply(ctx, from, m)
	case msgManifestRetry:
		if md, ok := a.pendingManifests[m.Name]; ok && md.Version == m.Version {
			ctx.Send(md.Registry, msgGetManifest{Name: m.Name, Version: m.Version})
			ctx.SetTimer(manifestRetry, msgManifestRetry{Name: m.Name, Version: m.Version})
		}
	}
}

func (a *Agent) onManifestReply(ctx *simnet.Context, from simnet.NodeID, m msgManifest) {
	md, ok := a.pendingManifests[m.Name]
	if !ok || md.Version != m.Version || !m.OK {
		return // stale or negative; the retry timer re-requests
	}
	want, err := md.ManifestDigest()
	if err != nil || blob.DigestOf(m.Data) != want {
		return // does not match the metadata's digest: ignore, retry later
	}
	man, err := blob.ParseManifest(m.Data)
	if err != nil || man.Name != md.Name || man.Version != md.Version {
		return
	}
	a.startTransfer(ctx, man, md.Registry, md.Tracker)
}

func (a *Agent) onAssign(ctx *simnet.Context, from simnet.NodeID, m msgAssign) {
	// Clear the outstanding-want flag on every transfer coordinated by
	// this tracker (grants are digest-keyed, not transfer-keyed).
	for _, t := range a.transfers {
		if t.tracker == from {
			t.wantOut = false
		}
	}
	for _, g := range m.Grants {
		if _, ok := a.inflight[g.Digest]; !ok && a.needs(g.Digest) {
			a.pending = append(a.pending, g)
		}
	}
	// Arm the backoff before dispatching: dispatch re-wants when the
	// pending queue runs low, and after an empty grant that would re-ask
	// immediately — the backoff gate must already be up.
	for _, t := range a.transfers {
		if t.tracker == from && m.Retry && !t.retryOut && !t.wantOut && a.waiting(t) {
			t.retryOut = true
			backoff := 500*time.Millisecond + time.Duration(a.net.RNG().Float64()*float64(time.Second))
			ctx.SetTimer(backoff, msgWantRetry{Name: t.manifest.Name})
		}
	}
	a.dispatch(ctx)
}

// setDeadline adds e to the back of the chain, moving the live entries
// over the spent front rather than growing a full array, and arms the
// timer.
func (a *Agent) setDeadline(ctx *simnet.Context, e deadline) {
	if len(a.deadlines) == cap(a.deadlines) && a.spent > 0 {
		a.deadlines = a.deadlines[:copy(a.deadlines, a.deadlines[a.spent:])]
		a.spent = 0
	}
	a.deadlines = append(a.deadlines, e)
	a.arm(ctx)
}

// arm sets the deadline timer for the front of the chain, unless it is
// set or the chain is empty.
func (a *Agent) arm(ctx *simnet.Context) {
	if !a.armed && a.spent < len(a.deadlines) {
		a.armed = true
		ctx.SetTimer(time.Duration(a.deadlines[a.spent].due-ctx.Now().UnixNano()), msgFetchDeadline{})
	}
}

// onDeadline reclaims every fetch whose deadline has passed, drops the
// entries of answered fetches at the front, and re-arms for the next
// fetch still in flight. The timer counts as armed until the end, so a
// reclaimed fetch's re-dispatch does not arm a second one.
func (a *Agent) onDeadline(ctx *simnet.Context) {
	now := ctx.Now().UnixNano()
	for a.spent < len(a.deadlines) {
		e := a.deadlines[a.spent]
		fl, ok := a.inflight[e.d]
		live := ok && fl.seq == e.seq
		if live && e.due > now {
			break
		}
		a.spent++
		if !live {
			continue
		}
		delete(a.inflight, e.d)
		a.release(fl.peer)
		a.pump(ctx)
	}
	a.armed = false
	a.arm(ctx)
}

func (a *Agent) onChunk(ctx *simnet.Context, from simnet.NodeID, m msgChunk) {
	if fl, ok := a.inflight[m.Digest]; ok && fl.peer == from {
		delete(a.inflight, m.Digest)
		a.release(from)
	} else if ok || !a.needs(m.Digest) {
		// A late reply (another peer's, or for a reclaimed fetch) is still
		// useful if no fetch of the digest is in flight and it is needed.
		return
	}
	if !m.OK || !a.needs(m.Digest) { // not held, or its transfer was abandoned
		a.pump(ctx)
		return
	}
	if _, err := a.store.PutVerified(m.Data, m.Size, m.Digest); err != nil {
		// The bytes do not hash to the manifest entry: quarantine the
		// peer and re-fetch from another holder.
		a.quarantine(from)
		a.CorruptChunks++
		a.pump(ctx)
		return
	}
	// The chunk counts as fetched for the first transfer by name that
	// needs it and as deduped for the others.
	var t *transfer
	var done []*transfer
	for _, u := range a.transfers {
		if !u.need[m.Digest] {
			continue
		}
		delete(u.need, m.Digest)
		if t == nil {
			t = u
			u.stats.ChunksFetched++
			u.stats.BytesFetched += int64(m.Size)
		} else {
			u.stats.ChunksDeduped++
		}
		if len(u.need) == 0 {
			done = append(done, u)
		}
	}
	a.ChunksFetched++
	if from == t.origin {
		a.ChunksFromOrigin++
	} else {
		a.ChunksFromPeers++
	}
	fp := a.net.Placement(from)
	switch {
	case a.pl.Region == fp.Region && a.pl.Cluster == fp.Cluster:
		a.ChunksSameCluster++
	case a.pl.Region == fp.Region:
		a.ChunksSameRegion++
	default:
		a.ChunksCrossRegion++
	}
	a.haveBuf = append(a.haveBuf, m.Digest)
	if len(a.haveBuf) >= announceEvery && t.tracker != "" {
		ctx.Send(t.tracker, msgAnnounce{Digests: a.flushHave()})
	}
	for _, u := range done {
		a.finish(ctx, u)
	}
	a.pump(ctx)
}

// transfer returns the transfer of package name, or nil.
func (a *Agent) transfer(name string) *transfer {
	for _, t := range a.transfers {
		if t.manifest.Name == name {
			return t
		}
	}
	return nil
}

// track records t as the transfer of its package, which has none.
func (a *Agent) track(t *transfer) {
	k := 0
	for k < len(a.transfers) && a.transfers[k].manifest.Name < t.manifest.Name {
		k++
	}
	a.transfers = slices.Insert(a.transfers, k, t)
}

// untrack forgets t, and the grants no transfer left needs.
func (a *Agent) untrack(t *transfer) {
	a.transfers = slices.DeleteFunc(a.transfers, func(u *transfer) bool { return u == t })
	a.pending = slices.DeleteFunc(a.pending, func(g grant) bool { return !a.needs(g.Digest) })
}

// release counts one fetch from peer as no longer in flight, and forgets
// the peer when none is left.
func (a *Agent) release(peer simnet.NodeID) {
	if a.perPeer[peer] > 1 {
		a.perPeer[peer]--
	} else {
		delete(a.perPeer, peer)
	}
}

func (a *Agent) quarantine(peer simnet.NodeID) {
	if !slices.Contains(a.avoid, peer) {
		a.avoid = append(a.avoid, peer)
	}
}

// finish commits the assembled manifest, announces the final digests, and
// fires the completion callback.
func (a *Agent) finish(ctx *simnet.Context, t *transfer) {
	if err := a.store.Commit(t.manifest); err != nil {
		// A hole the bookkeeping missed (should not happen): re-derive
		// the need set from the store and keep fetching.
		for _, d := range a.store.Missing(t.manifest) {
			t.need[d] = true
		}
		a.pump(ctx)
		return
	}
	a.untrack(t)
	if t.tracker != "" {
		if have := a.flushHave(); len(have) > 0 {
			ctx.Send(t.tracker, msgAnnounce{Digests: have, Complete: true})
		}
	}
	if a.onComplete != nil {
		a.onComplete(t.manifest, ctx.Now().Sub(t.started), t.stats)
	}
}

// resume runs when the agent is Restarted: the crash lost all in-memory
// swarm state, but the store — the disk — survived. Every journaled
// transfer is re-verified chunk by chunk (counted in ResumeVerified) and
// resumed fetching only the digests that are missing or failed
// verification.
func (a *Agent) resume(ctx *simnet.Context) {
	a.transfers, a.pending = nil, nil
	a.inflight, a.perPeer = nil, nil
	a.deadlines, a.spent, a.armed = nil, 0, false // the crash took the timer
	a.haveBuf = nil
	a.pendingManifests = nil
	a.avoid = nil

	for _, j := range a.store.Journals() {
		m := j.Manifest
		present, missing := a.store.Verify(m)
		a.ResumeVerified += uint64(len(present))
		// Re-announce what survived on disk: the tracker may have lost
		// (or never had) this holder.
		a.haveBuf = append(a.haveBuf, present...)
		a.start(ctx, &transfer{manifest: m, origin: simnet.NodeID(j.Origin), tracker: simnet.NodeID(j.Coordinator),
			stats: TransferStats{Resumed: true, ResumeVerified: len(present)}}, missing)
	}
}
