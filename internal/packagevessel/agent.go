package packagevessel

import (
	"sort"
	"time"

	"configerator/internal/obs"
	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

const (
	// chunkTimeout bounds one chunk fetch before the slot is reclaimed
	// (the assigned peer may have crashed mid-transfer).
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

// Options configures an Agent.
type Options struct {
	// Obs receives the vessel.* counters (nil-safe).
	Obs *obs.Registry
}

// TransferStats accounts one completed transfer.
type TransferStats struct {
	ChunksFetched  int   // chunks actually pulled over the wire
	ChunksDeduped  int   // manifest chunks already on disk (prior versions)
	BytesFetched   int64 // logical bytes on the wire
	BytesDeduped   int64 // logical bytes dedup saved
	Resumed        bool  // transfer recovered from the journal after a crash
	ResumeVerified int   // chunks re-verified on disk during recovery
}

// flight is one in-flight chunk fetch.
type flight struct {
	t    *transfer
	peer simnet.NodeID
}

// transfer tracks one in-progress package fetch.
type transfer struct {
	manifest blob.Manifest
	origin   simnet.NodeID // registry (authoritative fallback)
	tracker  simnet.NodeID // swarm coordinator ("": origin is the only holder)
	need     map[blob.Digest]bool
	// order holds the still-needed digests in manifest order (compacted
	// lazily as chunks verify), so building a msgWant need list scans
	// remaining work, not the whole manifest.
	order    []blob.Digest
	inflight map[blob.Digest]simnet.NodeID
	pending  []grant
	started  time.Time
	wantOut  bool // a msgWant is outstanding
	retryOut bool // a backoff retry timer is armed
	stats    TransferStats
}

// Agent runs on every subscribed server: it receives metadata updates
// (via the Configerator proxy subscription), fetches the named manifest,
// and swarms the missing digests — several in parallel, capped per peer,
// every chunk verified against its content address before it is stored.
type Agent struct {
	id  simnet.NodeID
	net *simnet.Network
	obs *obs.Registry

	store            *blob.Store
	transfers        map[string]*transfer // by package name (newest version only)
	inflight         map[blob.Digest]flight
	perPeer          map[simnet.NodeID]int
	inflightTotal    int
	haveBuf          []blob.Digest // verified digests awaiting announcement
	pendingManifests map[string]Metadata
	quarantined      map[simnet.NodeID]bool
	avoid            []simnet.NodeID // quarantine order (deterministic Avoid lists)

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
	a := &Agent{
		id: id, net: net, obs: opts.Obs,
		store:            blob.NewStore(),
		transfers:        make(map[string]*transfer),
		inflight:         make(map[blob.Digest]flight),
		perPeer:          make(map[simnet.NodeID]int),
		pendingManifests: make(map[string]Metadata),
		quarantined:      make(map[simnet.NodeID]bool),
	}
	net.AddNode(id, p, a)
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
	if t, ok := a.transfers[md.Name]; ok && t.manifest.Version >= md.Version {
		return
	}
	if cur, ok := a.pendingManifests[md.Name]; ok && cur.Version >= md.Version {
		return
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
	if cur, ok := a.transfers[m.Name]; ok {
		if cur.manifest.Version >= m.Version {
			return
		}
		a.abandon(cur)
	}
	delete(a.pendingManifests, m.Name)

	distinct := m.Distinct()
	missing := a.store.Missing(m)
	t := &transfer{
		manifest: m, origin: origin, tracker: tracker,
		need:     make(map[blob.Digest]bool, len(missing)),
		order:    missing,
		inflight: make(map[blob.Digest]simnet.NodeID),
		started:  ctx.Now(),
	}
	for _, d := range missing {
		t.need[d] = true
	}
	t.stats.ChunksDeduped = len(distinct) - len(missing)
	for d, size := range distinct {
		if !t.need[d] {
			t.stats.BytesDeduped += int64(size)
		}
	}
	a.obs.Add("vessel.chunks.dedup", int64(t.stats.ChunksDeduped))
	a.obs.Add("vessel.bytes.saved", t.stats.BytesDeduped)

	a.store.Begin(m, string(origin), string(tracker))
	a.transfers[m.Name] = t
	if len(t.need) == 0 {
		a.finish(ctx, t)
		return
	}
	a.requestGrants(ctx, t)
}

// abandon drops a transfer superseded by a newer version. Fetched chunks
// stay on disk — content-addressed, they may dedup the successor.
func (a *Agent) abandon(t *transfer) {
	for d, peer := range t.inflight {
		delete(a.inflight, d)
		if a.perPeer[peer] > 0 {
			a.perPeer[peer]--
		}
		a.inflightTotal--
	}
	a.store.Abandon(t.manifest)
	delete(a.transfers, t.manifest.Name)
}

// flushHave drains the announce buffer.
func (a *Agent) flushHave() []blob.Digest {
	h := a.haveBuf
	a.haveBuf = nil
	return h
}

// needList returns the transfer's missing digests in manifest order,
// excluding those already granted, capped at maxNeedList. The order
// slice compacts down to the still-needed digests as a side effect, so
// repeated calls late in a transfer scan only the remaining work.
func (t *transfer) needList() []blob.Digest {
	live := t.order[:0]
	out := make([]blob.Digest, 0, min(len(t.order), maxNeedList))
	for _, d := range t.order {
		if !t.need[d] && t.inflight[d] == "" && !t.granted(d) {
			continue // satisfied: drop from order
		}
		live = append(live, d)
		if len(out) < maxNeedList && t.need[d] && !t.granted(d) {
			out = append(out, d)
		}
	}
	t.order = live
	return out
}

// granted reports whether a digest already has an undispatched grant
// (pending is bounded by the grant batch size, so a linear scan wins
// over a map).
func (t *transfer) granted(d blob.Digest) bool {
	for _, g := range t.pending {
		if g.Digest == d {
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
	need := t.needList()
	if len(need) == 0 {
		return
	}
	max := grantBatch - len(t.pending)
	if max <= 0 {
		return
	}
	if t.tracker == "" {
		// Metadata that names no tracker has exactly one holder, the
		// registry: the agent grants itself the batch from origin, and
		// dispatch paces it (window, per-peer cap, chunkTimeout) like any
		// grant. An origin quarantined for a corrupt chunk leaves no holder
		// to ask.
		if a.quarantined[t.origin] {
			return
		}
		for _, d := range need[:min(len(need), max)] {
			t.pending = append(t.pending, grant{Digest: d, Peer: t.origin})
		}
		a.dispatch(ctx, t)
		return
	}
	t.wantOut = true
	ctx.Send(t.tracker, msgWant{Have: a.flushHave(), Need: need, Max: max, Avoid: a.Quarantined()})
}

// dispatch issues granted fetches while the window and per-peer caps
// allow.
func (a *Agent) dispatch(ctx *simnet.Context, t *transfer) {
	var deferred []grant
	for len(t.pending) > 0 && a.inflightTotal < fetchWindow {
		g := t.pending[0]
		t.pending = t.pending[1:]
		if !t.need[g.Digest] || a.quarantined[g.Peer] {
			continue
		}
		if a.perPeer[g.Peer] >= perPeerInflight {
			deferred = append(deferred, g)
			continue
		}
		delete(t.need, g.Digest)
		t.inflight[g.Digest] = g.Peer
		a.inflight[g.Digest] = flight{t: t, peer: g.Peer}
		a.perPeer[g.Peer]++
		a.inflightTotal++
		ctx.Send(g.Peer, msgGetChunk{Digest: g.Digest})
		ctx.SetTimer(chunkTimeout, msgChunkTimeout{Digest: g.Digest})
	}
	t.pending = append(t.pending, deferred...)
	if len(t.need) > 0 && len(t.pending) <= grantBatch/2 {
		a.requestGrants(ctx, t)
	}
}

// HandleMessage implements simnet.Handler.
func (a *Agent) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case msgAssign:
		a.onAssign(ctx, from, m)
	case msgChunk:
		a.onChunk(ctx, from, m)
	case msgChunkTimeout:
		a.onChunkTimeout(ctx, m)
	case msgWantRetry:
		if t, ok := a.transfers[m.Name]; ok {
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
		if t := a.transferNeeding(g.Digest); t != nil {
			t.pending = append(t.pending, g)
		}
	}
	names := a.sortedTransferNames()
	for _, name := range names {
		t := a.transfers[name]
		if t.tracker != from {
			continue
		}
		// Arm the backoff before dispatching: dispatch re-wants when the
		// pending queue runs low, and after an empty grant that would
		// re-ask immediately — the backoff gate must already be up.
		if m.Retry && len(t.need) > 0 && !t.retryOut && !t.wantOut {
			t.retryOut = true
			backoff := 500*time.Millisecond + time.Duration(a.net.RNG().Float64()*float64(time.Second))
			ctx.SetTimer(backoff, msgWantRetry{Name: name})
		}
		a.dispatch(ctx, t)
	}
}

func (a *Agent) sortedTransferNames() []string {
	names := make([]string, 0, len(a.transfers))
	for name := range a.transfers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (a *Agent) transferNeeding(d blob.Digest) *transfer {
	for _, name := range a.sortedTransferNames() {
		if t := a.transfers[name]; t.need[d] {
			return t
		}
	}
	return nil
}

func (a *Agent) onChunkTimeout(ctx *simnet.Context, m msgChunkTimeout) {
	fl, ok := a.inflight[m.Digest]
	if !ok {
		return
	}
	delete(a.inflight, m.Digest)
	delete(fl.t.inflight, m.Digest)
	if a.perPeer[fl.peer] > 0 {
		a.perPeer[fl.peer]--
	}
	a.inflightTotal--
	fl.t.need[m.Digest] = true
	a.continueTransfer(ctx, fl.t)
}

func (a *Agent) onChunk(ctx *simnet.Context, from simnet.NodeID, m msgChunk) {
	var t *transfer
	if fl, ok := a.inflight[m.Digest]; ok && fl.peer == from {
		delete(a.inflight, m.Digest)
		delete(fl.t.inflight, m.Digest)
		if a.perPeer[from] > 0 {
			a.perPeer[from]--
		}
		a.inflightTotal--
		t = fl.t
	} else {
		// Late reply (slot already reclaimed) — still useful if the
		// digest is wanted.
		t = a.transferNeeding(m.Digest)
		if t == nil {
			return
		}
	}
	if !m.OK {
		t.need[m.Digest] = true
		a.continueTransfer(ctx, t)
		return
	}
	if _, err := a.store.PutVerified(m.Data, m.Size, m.Digest); err != nil {
		// The bytes do not hash to the manifest entry: quarantine the
		// peer and re-fetch from another holder.
		a.quarantine(from)
		a.CorruptChunks++
		a.obs.Add("vessel.chunks.corrupt", 1)
		t.need[m.Digest] = true
		a.continueTransfer(ctx, t)
		return
	}
	delete(t.need, m.Digest) // covers the late-reply path
	a.ChunksFetched++
	t.stats.ChunksFetched++
	t.stats.BytesFetched += int64(m.Size)
	if from == t.origin {
		a.ChunksFromOrigin++
	} else {
		a.ChunksFromPeers++
	}
	ap := a.net.Placement(a.id)
	fp := a.net.Placement(from)
	switch {
	case ap.Region == fp.Region && ap.Cluster == fp.Cluster:
		a.ChunksSameCluster++
	case ap.Region == fp.Region:
		a.ChunksSameRegion++
	default:
		a.ChunksCrossRegion++
	}
	a.haveBuf = append(a.haveBuf, m.Digest)
	if len(a.haveBuf) >= announceEvery && t.tracker != "" {
		ctx.Send(t.tracker, msgAnnounce{Digests: a.flushHave()})
	}

	if len(t.need) == 0 && len(t.inflight) == 0 {
		a.finish(ctx, t)
		return
	}
	a.continueTransfer(ctx, t)
}

func (a *Agent) continueTransfer(ctx *simnet.Context, t *transfer) {
	a.dispatch(ctx, t)
	a.requestGrants(ctx, t)
}

func (a *Agent) quarantine(peer simnet.NodeID) {
	if !a.quarantined[peer] {
		a.quarantined[peer] = true
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
		a.continueTransfer(ctx, t)
		return
	}
	delete(a.transfers, t.manifest.Name)
	if t.tracker != "" {
		if have := a.flushHave(); len(have) > 0 {
			ctx.Send(t.tracker, msgAnnounce{Digests: have, Complete: true})
		}
	}
	if a.onComplete != nil {
		a.onComplete(t.manifest, ctx.Now().Sub(t.started), t.stats)
	}
}

// OnRestart implements simnet.Restarter: the crash lost all in-memory
// swarm state, but the store — the disk — survived. Every journaled
// transfer is re-verified chunk by chunk (counted in
// vessel.resume.verified) and resumed fetching only the digests that are
// missing or failed verification.
func (a *Agent) OnRestart(ctx *simnet.Context) {
	a.transfers = make(map[string]*transfer)
	a.inflight = make(map[blob.Digest]flight)
	a.perPeer = make(map[simnet.NodeID]int)
	a.inflightTotal = 0
	a.haveBuf = nil
	a.pendingManifests = make(map[string]Metadata)
	a.quarantined = make(map[simnet.NodeID]bool)
	a.avoid = nil

	for _, j := range a.store.Journals() {
		m := j.Manifest
		present, missing := a.store.Verify(m)
		a.ResumeVerified += uint64(len(present))
		a.obs.Add("vessel.resume.verified", int64(len(present)))
		t := &transfer{
			manifest: m,
			origin:   simnet.NodeID(j.Origin),
			tracker:  simnet.NodeID(j.Coordinator),
			need:     make(map[blob.Digest]bool, len(missing)),
			order:    missing,
			inflight: make(map[blob.Digest]simnet.NodeID),
			started:  ctx.Now(),
		}
		t.stats.Resumed = true
		t.stats.ResumeVerified = len(present)
		for _, d := range missing {
			t.need[d] = true
		}
		a.transfers[m.Name] = t
		// Re-announce what survived on disk: the tracker may have lost
		// (or never had) this holder.
		a.haveBuf = append(a.haveBuf, present...)
		if len(t.need) == 0 {
			a.finish(ctx, t)
			continue
		}
		a.requestGrants(ctx, t)
	}
}
