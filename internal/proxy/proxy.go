// Package proxy implements the Configerator Proxy that runs on every
// production server (§3.4, bottom of Figure 3).
//
// The proxy randomly picks a Zeus observer in its own cluster, fetches the
// configs the local applications need (it is not a full replica — it only
// caches what is asked for), leaves watches so updates are pushed, and
// stores everything in an on-disk cache. Failure handling follows the
// paper (§4.1): fetches carry deadlines and retry with exponentially
// backed-off, deterministically jittered delays; a slow observer gets a
// hedged second fetch after a p99-derived delay; a failed observer is
// replaced by the healthiest alternative (scored from observed error rate
// and latency); and if every Configerator component fails, reads degrade
// to the on-disk cache with explicit staleness metadata — a config that
// was ever fetched remains available (stale but usable) no matter what.
//
// Read hot path. Configs are read many orders of magnitude more often than
// they change (the paper's motivating ratio), so the store is one cell per
// path — a mutable name whose atomic pointer holds the path's current
// entryState, an immutable object per version (the Nix store's model) — and
// the published snapshot maps paths to cells: Read is atomic load → map
// lookup → atomic load, no mutex, no allocation, safe from any application
// goroutine concurrently with updates. A new version of a known path, pushed
// or fetched, is one entryState and one pointer store; the snapshot is swapped
// only for a path the proxy has not heard of (the one case that clones the
// map), an override, or the down/plane-down flags — on the single-threaded
// simulation loop, never by a reader. The same pointer is the on-disk cache:
// a state in memory has a decode-memo slot, Restart leaves each cell a copy
// without one, and that is served stale and advertised as the fetch base until
// the refetch lands. Cache misses cannot touch the simulator's event queue from
// a reader goroutine, so Read records them in a thread-safe pending set that
// the proxy drains (issuing fetch+watch) on its next message or ping tick.
package proxy

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"configerator/internal/intern"
	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

// UpdateFunc is an application callback fired when a config changes.
type UpdateFunc func(Entry)

// Source says which layer served a read, i.e. how fresh it can be.
type Source string

const (
	// SourceFresh: served from memory while the distribution plane is
	// healthy — the value is current (or a push away from it).
	SourceFresh Source = "fresh"
	// SourceCached: served from memory while the plane is down — it was
	// current when the plane died, but updates can no longer arrive.
	SourceCached Source = "cached"
	// SourceStale: served from the on-disk cache (proxy down or cold) —
	// possibly many versions old.
	SourceStale Source = "stale"
)

// ReadResult is a read with its staleness metadata: where the value came
// from and how long ago the proxy last confirmed it with an observer.
type ReadResult struct {
	Entry
	Source Source
	Age    time.Duration
	// OK is false when no layer could serve the path.
	OK bool
}

// subscription is one application callback, optionally with a liveness
// check; dead subscriptions are pruned at delivery time so a cancelled
// watcher cannot leak across proxy restarts.
type subscription struct {
	fn    UpdateFunc
	alive func() bool // nil = lives forever
}

// entryState is one version of one config: immutable once a cell points at it,
// except readMark — the newest zxid an application has already read (so only
// the first read of each version emits a propagation event), atomic because
// first-reads race across application goroutines.
type entryState struct {
	e        Entry
	readMark atomic.Int64
	memo     Memo // e.memo points here (or at a re-confirmed version's first state) while in memory
}

// cell is the proxy's one record for a path, created when the proxy first hears
// of the path and never removed. st is all a reader touches; the rest belongs
// to the simulation thread.
type cell struct {
	path string                     // interned
	st   atomic.Pointer[entryState] // newest applied version, in memory and on disk; nil = none yet

	watched bool           // an application wants it kept warm
	subs    []subscription // application callbacks
	reqs    []int64        // outstanding fetch reqIDs (primary + hedge)
}

// snapshot is what readers load: the cell table, the overrides and the flags.
// It and its maps are never mutated after publication; writers clone-and-swap.
type snapshot struct {
	entries   map[string]*cell
	overrides map[string]*entryState // canary temporary deployments win
	planeDown bool                   // every observer considered dead
	down      bool                   // proxy process crashed
}

// store is a cell table and its publication point: a proxy's, or a bare
// DiskCache's.
type store struct {
	// snap is the read snapshot. Readers do one atomic load; writers
	// serialize on wmu, clone, and swap.
	snap atomic.Pointer[snapshot]
	wmu  sync.Mutex
}

// Proxy is the per-server config proxy. It is a simnet node; the local
// applications call its methods directly (they share the server).
// Read (and the client library's Get built on it) is safe to call from any
// goroutine; every other method belongs to the simulation/driver thread.
type Proxy struct {
	id        simnet.NodeID
	net       *simnet.Network
	observers []simnet.NodeID // observers in this cluster
	stats     []obsStats      // parallel to observers
	current   int             // index of the connected observer
	store

	inflight map[int64]fetchState // reqID -> outstanding fetch
	nextReq  int64

	// Cache misses observed by reader goroutines. Readers cannot touch the
	// simulator's event queue, so Read parks the path here and the proxy
	// drains the set (Want-ing each path) on its next message or ping tick.
	missMu      sync.Mutex
	missSet     map[string]struct{}
	missPending atomic.Bool

	rtts            []time.Duration // recent fetch RTTs (hedge delay source)
	pingOutstanding int

	// Convergence-heartbeat config (EnableMonitor): the monitor node and
	// cadence. "" = monitoring off.
	monTarget simnet.NodeID
	monEvery  time.Duration

	// Stats.
	Fetches     uint64
	WatchEvents uint64
	Failovers   uint64

	// Obs, when set, receives a materialize event each time the proxy
	// caches a new config version, and a read event the first time the
	// local applications read each version (nil = no instrumentation).
	Obs *obs.Registry
}

// New creates a proxy on the network at the placement, connected to the
// given same-cluster observers. A non-nil disk is what an earlier process left
// on this server: its entries seed the cells, cold.
func New(net *simnet.Network, id simnet.NodeID, placement simnet.Placement, observers []simnet.NodeID, disk *DiskCache) *Proxy {
	p := &Proxy{
		id:        id,
		net:       net,
		observers: observers,
		stats:     make([]obsStats, len(observers)),
		inflight:  make(map[int64]fetchState),
	}
	p.snap.Store(&snapshot{})
	if disk != nil {
		for path, c := range disk.s.snap.Load().entries {
			if st := c.st.Load(); st != nil {
				p.cell(path).plant(st.e)
			}
		}
	}
	if len(observers) > 0 {
		p.current = int(net.RNG().Intn(len(observers)))
	}
	net.AddNode(id, placement, p)
	net.SetTimer(id, pingInterval, msgTickPing{})
	return p
}

// mutateSnap copies the current snapshot, applies mut, and publishes the
// result with one atomic swap. The copy shares both maps with its
// predecessor, so mut may set the flags freely but must replace a map it
// changes with a clone (with) — copy-on-write of only what the mutation
// touches, paid by the simulation loop, never by readers.
func (s *store) mutateSnap(mut func(*snapshot)) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	next := *s.snap.Load()
	mut(&next)
	s.snap.Store(&next)
}

// with returns a copy of m with key set to v: O(len(m)).
func with[V any](m map[string]V, key string, v V) map[string]V {
	next := make(map[string]V, len(m)+1)
	maps.Copy(next, m)
	next[key] = v
	return next
}

// cell returns the record for path, adding it on first sight — the one update
// that swaps the cell table.
func (s *store) cell(path string) (c *cell) {
	if c = s.snap.Load().entries[path]; c != nil {
		return c
	}
	s.mutateSnap(func(sn *snapshot) {
		if c = sn.entries[path]; c == nil {
			c = &cell{path: intern.Path(path)}
			sn.entries = with(sn.entries, c.path, c)
		}
	})
	return c
}

// held returns the newest version applied to path, in memory or only on disk.
func (s *snapshot) held(path string) *entryState {
	if c := s.entries[path]; c != nil {
		return c.st.Load()
	}
	return nil
}

// mem returns the state c holds in memory: nil when it is empty or holds only
// what survives a crash — the on-disk copy, which has no memo slot.
func (c *cell) mem() *entryState {
	if st := c.st.Load(); st != nil && st.e.memo != nil {
		return st
	}
	return nil
}

// plant makes e the cell's on-disk copy, in nobody's memory.
func (c *cell) plant(e Entry) {
	e.Path, e.memo = c.path, nil
	c.st.Store(&entryState{e: e})
}

// ID returns the proxy's node id.
func (p *Proxy) ID() simnet.NodeID { return p.id }

// Disk exposes the on-disk cache: a view of the cells' surviving side.
func (p *Proxy) Disk() *DiskCache { return &DiskCache{s: &p.store} }

// PlaneDown reports whether the proxy currently considers every observer
// unreachable (the distribution plane lost).
func (p *Proxy) PlaneDown() bool { return p.snap.Load().planeDown }

// Crash simulates the proxy process dying. Cached state in memory is lost;
// the disk cache survives.
func (p *Proxy) Crash() {
	p.mutateSnap(func(s *snapshot) { s.down = true })
	p.net.Fail(p.id)
}

// Restart brings the proxy back with a cold in-memory cache: every cell is left
// its on-disk copy before the snapshot says up. Application subscriptions survive
// (the apps share the server and resubscribe implicitly), dead ones are pruned.
func (p *Proxy) Restart() {
	for _, c := range p.snap.Load().entries {
		c.reqs = nil
		p.pruneSubs(c)
		if st := c.mem(); st != nil {
			c.plant(st.e)
		}
	}
	p.mutateSnap(func(s *snapshot) { *s = snapshot{entries: s.entries} })
	p.inflight = make(map[int64]fetchState)
	clear(p.stats)
	p.rtts = nil
	p.pingOutstanding = 0
	p.net.Recover(p.id)
}

// OnRestart implements simnet.Restarter.
func (p *Proxy) OnRestart(ctx *simnet.Context) {
	ctx.SetTimer(pingInterval, msgTickPing{})
	if p.monTarget != "" {
		// Timers die with the crashed node: re-arm the heartbeat tick.
		ctx.SetTimer(p.monEvery, msgTickMonitor{})
	}
	// Re-fetch everything the applications subscribed to. The in-memory
	// cache is cold, so hashes are advertised from the disk cache; a delta
	// that no longer applies falls back to a full snapshot.
	p.resubscribe(ctx, p.watchedCells(), false)
}

// Down reports whether the proxy process is crashed.
func (p *Proxy) Down() bool { return p.snap.Load().down }

// Want asks the proxy to fetch and keep a config warm (with a watch). The
// application's startup request path. Simulation/driver thread only —
// reader goroutines warm paths implicitly through Read's miss set.
func (p *Proxy) Want(path string) {
	if p.snap.Load().down {
		return
	}
	ctx := simnet.MakeContext(p.net, p.id)
	c := p.cell(path)
	c.watched = true
	if c.mem() == nil {
		p.sendFetch(&ctx, c)
	}
}

// noteMiss records a cache miss seen by a reader goroutine; the path is
// Want-ed when the simulation loop next gives the proxy control.
func (p *Proxy) noteMiss(path string) {
	p.missMu.Lock()
	if p.missSet == nil {
		p.missSet = make(map[string]struct{})
	}
	p.missSet[path] = struct{}{}
	p.missMu.Unlock()
	p.missPending.Store(true)
}

// drainMisses turns reader-recorded cache misses into fetches. Runs on the
// simulation thread (message/ping handlers), so worst-case warm-up lag is
// one ping interval.
func (p *Proxy) drainMisses(ctx *simnet.Context) {
	if !p.missPending.Load() {
		return
	}
	p.missMu.Lock()
	set := p.missSet
	p.missSet = nil
	p.missPending.Store(false)
	p.missMu.Unlock()
	paths := make([]string, 0, len(set))
	for path := range set {
		paths = append(paths, path)
	}
	slices.Sort(paths) // a fetch draws link jitter from the shared RNG: never in map order
	for _, path := range paths {
		p.Want(path)
	}
}

// Subscribe registers an application callback for a path and keeps the
// config warm. The callback fires on every subsequent change, forever.
func (p *Proxy) Subscribe(path string, fn UpdateFunc) {
	p.SubscribeWhile(path, nil, fn)
}

// SubscribeWhile registers a callback that lives only while alive()
// returns true (nil = forever). Dead subscriptions are pruned at delivery
// time and across restarts — the cancellation hook the context-aware
// client API builds on.
func (p *Proxy) SubscribeWhile(path string, alive func() bool, fn UpdateFunc) {
	c := p.cell(path)
	c.subs = append(c.subs, subscription{fn: fn, alive: alive})
	p.Want(path)
}

// SubCount reports the live subscriptions for a path (leak tests).
func (p *Proxy) SubCount(path string) int {
	c := p.snap.Load().entries[path]
	if c == nil {
		return 0
	}
	p.pruneSubs(c)
	return len(c.subs)
}

// pruneSubs drops subscriptions whose liveness check fails.
func (p *Proxy) pruneSubs(c *cell) {
	kept := c.subs[:0]
	for _, s := range c.subs {
		if s.alive != nil && !s.alive() {
			p.Obs.Add("proxy.sub.pruned", 1)
			continue
		}
		kept = append(kept, s)
	}
	c.subs = kept
}

// notify fires the live subscriptions for a path, pruning dead ones.
func (p *Proxy) notify(c *cell, e Entry) {
	p.pruneSubs(c)
	for _, s := range c.subs {
		s.fn(e)
	}
}

// SetOverride temporarily deploys a config to this server only — the
// canary service's mechanism ("the canary service talks to the proxies …
// to temporarily deploy the new config", §3.3). Subscribers fire as if the
// config changed.
func (p *Proxy) SetOverride(path string, data []byte) {
	c := p.cell(path)
	st := &entryState{e: Entry{Path: c.path, Exists: true, Data: data, Version: -1, Hash: vcs.HashBytes(data)}}
	st.e.memo = &st.memo
	p.mutateSnap(func(s *snapshot) { s.overrides = with(s.overrides, c.path, st) })
	p.notify(c, st.e)
}

// ClearOverride removes a temporary deployment; subscribers are re-fed the
// committed value (rollback).
func (p *Proxy) ClearOverride(path string) {
	snap := p.snap.Load()
	if _, ok := snap.overrides[path]; !ok {
		return
	}
	p.mutateSnap(func(s *snapshot) {
		s.overrides = maps.Clone(s.overrides)
		delete(s.overrides, path)
	})
	c := snap.entries[path] // SetOverride made it
	if st := c.mem(); st != nil {
		p.notify(c, st.e)
	}
}

// CachedPaths lists, sorted, the paths currently in the in-memory cache or
// overridden (the application-visible config set on this server).
func (p *Proxy) CachedPaths() []string {
	snap := p.snap.Load()
	var out []string
	for path, c := range snap.entries {
		if _, ov := snap.overrides[path]; ov || c.mem() != nil {
			out = append(out, path)
		}
	}
	slices.Sort(out)
	return out
}

// Overridden reports whether path currently has a canary override.
func (p *Proxy) Overridden(path string) bool {
	_, ok := p.snap.Load().overrides[path]
	return ok
}

// Read returns the config at path with staleness metadata, degrading
// through the layers: override and memory while the proxy process is up
// (fresh if the plane is healthy, cached if not), then the on-disk cache
// (stale) — the paper's choice of availability over freshness. Source says
// how degraded a read is, for a caller that would rather refuse.
//
// Read is the hot path: snapshot load, map lookup, cell load — safe from any
// goroutine, and allocation-free when the path is in memory
// (TestReadZeroAllocWarm asserts 0 allocs).
func (p *Proxy) Read(path string) ReadResult {
	snap := p.snap.Load()
	now := p.net.Now()
	st := snap.held(path)
	if !snap.down {
		if ov, ok := snap.overrides[path]; ok {
			return ReadResult{Entry: ov.e, Source: SourceFresh, OK: true}
		}
		if st != nil && st.e.memo != nil { // in memory: cell.mem's test
			src := SourceFresh
			if snap.planeDown {
				src = SourceCached
			}
			if mark := st.readMark.Load(); st.e.Zxid > mark {
				// First application read of this version (CAS so exactly
				// one racing reader records it).
				if st.readMark.CompareAndSwap(mark, st.e.Zxid) {
					p.Obs.PathEvent(path, obs.PropEvent{
						Stage: obs.EvClientRead, Node: string(p.id),
						Zxid: st.e.Zxid, At: now,
					})
				}
			}
			if src != SourceFresh {
				p.Obs.Add("proxy.read.degraded", 1)
			}
			return ReadResult{Entry: st.e, Source: src, Age: now.Sub(st.e.Fetched), OK: true}
		}
		p.noteMiss(path) // warm it for next time
	}
	// Fall back to the on-disk copy (proxy down or not yet refetched).
	if st == nil {
		return ReadResult{Source: SourceStale}
	}
	p.Obs.Add("proxy.read.stale", 1)
	e := st.e
	e.memo = nil // decodes do not survive the process that made them
	return ReadResult{Entry: e, Source: SourceStale, Age: now.Sub(e.Fetched), OK: true}
}

// HandleMessage implements simnet.Handler.
func (p *Proxy) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	p.drainMisses(ctx)
	switch m := msg.(type) {
	case zeus.MsgFetchReply:
		p.onFetchReply(ctx, from, m)
	case zeus.MsgWatchEvent:
		if from != p.observer() {
			return // stale watch from a previous observer
		}
		p.WatchEvents++
		p.onWatchEvent(ctx, from, m)
	case msgFetchTimeout:
		p.onFetchTimeout(ctx, m)
	case msgHedgeFire:
		p.onHedgeFire(ctx, m)
	case msgRetryFetch:
		if m.c.watched && len(m.c.reqs) == 0 {
			p.fetchFrom(ctx, m.c, p.observer(), true, m.Attempt, false)
		}
	case msgTickMonitor:
		p.onTickMonitor(ctx)
	case msgTickPing:
		ctx.SetTimer(pingInterval, msgTickPing{})
		if p.pingOutstanding >= maxPingMisses {
			p.recordFailure(p.observer())
			p.failover(ctx)
		}
		if obs := p.observer(); obs != "" {
			p.pingOutstanding++
			ctx.Send(obs, zeus.MsgPing{})
		}
	case zeus.MsgPong:
		if from == p.observer() {
			p.pingOutstanding = 0
		}
		p.recordSuccess(ctx, from, -1)
	}
}

// onWatchEvent takes a pushed update: the base is whatever we hold now.
func (p *Proxy) onWatchEvent(ctx *simnet.Context, from simnet.NodeID, m zeus.MsgWatchEvent) {
	c := p.cell(m.Path)
	var base Entry // zero: no bytes, no digest
	if old := c.mem(); old != nil {
		if m.Zxid <= old.e.Zxid {
			return // already current (or newer) — nothing to resolve
		}
		if old.e.Exists {
			base = old.e
		}
	}
	p.recordSuccess(ctx, from, -1)
	p.receive(ctx, c, from, m.Update, base, false, 0)
}

// receive is the one place an update from an observer — pushed, or fetched on
// the given attempt — becomes an entry. Its content is base's own when the
// observer confirmed that (notModified), else the payload resolved against base.
func (p *Proxy) receive(ctx *simnet.Context, c *cell, from simnet.NodeID, u zeus.Update, base Entry, notModified bool, attempt int) {
	e := Entry{Path: c.path, Exists: !u.Delete, Version: u.Version, Zxid: u.Zxid, Fetched: ctx.Now()}
	if notModified {
		e.Data, e.Hash = base.Data, base.Hash
	} else if !u.Delete {
		var err error
		if e.Data, e.Hash, err = u.Payload.Resolve(base.Data, base.Hash); err != nil {
			p.resolveFailed(ctx, c, u.Payload, from, attempt)
			return
		}
	}
	p.apply(ctx, c, e, from)
}

// resolveFailed handles a payload that did not materialize. A delta miss is
// ours to repair — it was made against a version we do not hold (missed
// event, restart, a disk-cache base older than the observer's) — so demand
// the full snapshot. A full body that does not hash to what it claims is the
// sender's fault: refuse it, charge the observer, and retry like any other
// failed fetch.
func (p *Proxy) resolveFailed(ctx *simnet.Context, c *cell, pl zeus.Payload, from simnet.NodeID, attempt int) {
	if pl.IsDelta {
		p.deltaFallback(ctx, c)
		return
	}
	p.Obs.Add("proxy.payload.bad_full", 1)
	p.fetchFailed(ctx, c, from, attempt)
}

// apply makes e the cell's version if it is not older than what we have: one
// immutable entryState, one pointer store, seen by readers and by the disk
// side alike. via is the observer that delivered it (the upstream hop in the
// push tree).
func (p *Proxy) apply(ctx *simnet.Context, c *cell, e Entry, via simnet.NodeID) {
	old := c.mem()
	if old != nil && e.Zxid < old.e.Zxid {
		return
	}
	changed := old == nil || old.e.Zxid != e.Zxid
	st := &entryState{e: e}
	if changed {
		st.e.memo = &st.memo
	} else {
		// Same version re-confirmed (e.g. a not-modified refresh): keep
		// the decode memo and the first-read mark.
		st.e.memo = old.e.memo
		st.readMark.Store(old.readMark.Load())
	}
	c.st.Store(st)
	if changed {
		p.Obs.PathEvent(c.path, obs.PropEvent{
			Stage: obs.EvProxyMaterialize, Node: string(p.id), Via: string(via),
			Zxid: e.Zxid, At: ctx.Now(),
		})
		p.notify(c, st.e)
	}
}
