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
// they change (the paper's motivating ratio), so the in-memory store is an
// immutable snapshot behind an atomic pointer: Read is one atomic load plus
// map lookups — no mutex, no allocation — and is safe from any application
// goroutine concurrently with updates. Writers (watch deliveries, canary
// overrides, plane-down transitions, crash/restart) build the next snapshot
// copy-on-write and publish it with a single pointer swap; they run on the
// single-threaded simulation loop, so the copy cost is paid off the read
// path entirely. Cache misses cannot touch the simulator's event queue from
// a reader goroutine, so Read records them in a thread-safe pending set
// that the proxy drains (issuing fetch+watch) on its next message or ping
// tick.
package proxy

import (
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

// entryState is one config in the read snapshot: the immutable entry plus
// the newest zxid an application has already read (so only the first read
// of each version emits a propagation event). The mark is atomic because
// first-reads race across application goroutines.
type entryState struct {
	e        Entry
	readMark atomic.Int64
}

// snapshot is the immutable in-memory store published to readers. A
// snapshot and everything reachable from it is never mutated after
// publication (readMark aside, which is atomic); writers clone-and-swap.
type snapshot struct {
	entries   map[string]*entryState
	overrides map[string]*entryState // canary temporary deployments win
	planeDown bool                   // every observer considered dead
	down      bool                   // proxy process crashed
}

// Proxy is the per-server config proxy. It is a simnet node; the local
// applications call its methods directly (they share the server).
// Read (and the client library's Get built on it) is safe to call from any
// goroutine; every other method belongs to the simulation/driver thread.
type Proxy struct {
	id        simnet.NodeID
	net       *simnet.Network
	observers []simnet.NodeID // observers in this cluster
	current   int             // index of the connected observer
	disk      *DiskCache

	// snap is the read snapshot. Readers do one atomic load; writers
	// serialize on wmu, clone, and swap.
	snap atomic.Pointer[snapshot]
	wmu  sync.Mutex

	watched  map[string]bool
	subs     map[string][]subscription
	inflight map[int64]fetchState // reqID -> outstanding fetch
	byPath   map[string][]int64   // path -> outstanding reqIDs (primary + hedge)
	nextReq  int64

	// Cache misses observed by reader goroutines. Readers cannot touch the
	// simulator's event queue, so Read parks the path here and the proxy
	// drains the set (Want-ing each path) on its next message or ping tick.
	missMu      sync.Mutex
	missSet     map[string]struct{}
	missPending atomic.Bool

	stats map[simnet.NodeID]*obsStats
	rtts  []time.Duration // recent fetch RTTs (hedge delay source)

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
// given same-cluster observers.
func New(net *simnet.Network, id simnet.NodeID, placement simnet.Placement, observers []simnet.NodeID, disk *DiskCache) *Proxy {
	if disk == nil {
		disk = NewDiskCache()
	}
	p := &Proxy{
		id:        id,
		net:       net,
		observers: observers,
		disk:      disk,
		watched:   make(map[string]bool),
		subs:      make(map[string][]subscription),
		inflight:  make(map[int64]fetchState),
		byPath:    make(map[string][]int64),
		stats:     make(map[simnet.NodeID]*obsStats),
	}
	p.snap.Store(&snapshot{
		entries:   make(map[string]*entryState),
		overrides: make(map[string]*entryState),
	})
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
// changes with a clone (withEntry) — copy-on-write of only what the
// mutation touches, paid by the simulation loop, never by readers.
func (p *Proxy) mutateSnap(mut func(*snapshot)) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	next := *p.snap.Load()
	mut(&next)
	p.snap.Store(&next)
}

// withEntry returns a copy of m with path set to st (or removed, when st is
// nil): O(cached paths).
func withEntry(m map[string]*entryState, path string, st *entryState) map[string]*entryState {
	// Filled by hand into a presized map: maps.Clone costs one more
	// allocation per swap (simnet.allocs_per_event 6.7 against 6.0).
	next := make(map[string]*entryState, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	if st == nil {
		delete(next, path)
	} else {
		next[path] = st
	}
	return next
}

// ID returns the proxy's node id.
func (p *Proxy) ID() simnet.NodeID { return p.id }

// Disk exposes the on-disk cache (the client library fallback reads it).
func (p *Proxy) Disk() *DiskCache { return p.disk }

// PlaneDown reports whether the proxy currently considers every observer
// unreachable (the distribution plane lost).
func (p *Proxy) PlaneDown() bool { return p.snap.Load().planeDown }

// Crash simulates the proxy process dying. Cached state in memory is lost;
// the disk cache survives.
func (p *Proxy) Crash() {
	p.mutateSnap(func(s *snapshot) { s.down = true })
	p.net.Fail(p.id)
}

// Restart brings the proxy back with a cold in-memory cache. Application
// subscriptions survive (the apps share the server and resubscribe
// implicitly), but dead ones are pruned rather than revived.
func (p *Proxy) Restart() {
	p.wmu.Lock()
	p.snap.Store(&snapshot{
		entries:   make(map[string]*entryState),
		overrides: make(map[string]*entryState),
	})
	p.wmu.Unlock()
	p.inflight = make(map[int64]fetchState)
	p.byPath = make(map[string][]int64)
	p.stats = make(map[simnet.NodeID]*obsStats)
	p.rtts = nil
	p.pingOutstanding = 0
	for path := range p.subs {
		p.pruneSubs(path)
	}
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
	p.resubscribe(ctx, p.watchedPaths(), false)
}

// Down reports whether the proxy process is crashed.
func (p *Proxy) Down() bool { return p.snap.Load().down }

// Want asks the proxy to fetch and keep a config warm (with a watch). The
// application's startup request path. Simulation/driver thread only —
// reader goroutines warm paths implicitly through Read's miss set.
func (p *Proxy) Want(path string) {
	snap := p.snap.Load()
	if snap.down {
		return
	}
	path = intern.Path(path)
	ctx := simnet.MakeContext(p.net, p.id)
	p.watched[path] = true
	if _, cached := snap.entries[path]; !cached {
		p.sendFetch(&ctx, path)
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
	snap := p.snap.Load()
	if snap.down {
		return
	}
	cold := make([]string, 0, len(set))
	for path := range set {
		path = intern.Path(path)
		p.watched[path] = true
		if _, cached := snap.entries[path]; !cached {
			cold = append(cold, path)
		}
	}
	slices.Sort(cold)
	p.resubscribe(ctx, cold, false)
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
	path = intern.Path(path)
	p.subs[path] = append(p.subs[path], subscription{fn: fn, alive: alive})
	p.Want(path)
}

// SubCount reports the live subscriptions for a path (leak tests).
func (p *Proxy) SubCount(path string) int {
	p.pruneSubs(path)
	return len(p.subs[path])
}

// pruneSubs drops subscriptions whose liveness check fails.
func (p *Proxy) pruneSubs(path string) {
	subs := p.subs[path]
	kept := subs[:0]
	for _, s := range subs {
		if s.alive != nil && !s.alive() {
			p.Obs.Add("proxy.sub.pruned", 1)
			continue
		}
		kept = append(kept, s)
	}
	if len(kept) == 0 {
		delete(p.subs, path)
	} else {
		p.subs[path] = kept
	}
}

// notify fires the live subscriptions for a path, pruning dead ones.
func (p *Proxy) notify(path string, e Entry) {
	p.pruneSubs(path)
	for _, s := range p.subs[path] {
		s.fn(e)
	}
}

// SetOverride temporarily deploys a config to this server only — the
// canary service's mechanism ("the canary service talks to the proxies …
// to temporarily deploy the new config", §3.3). Subscribers fire as if the
// config changed.
func (p *Proxy) SetOverride(path string, data []byte) {
	path = intern.Path(path)
	e := Entry{Path: path, Exists: true, Data: data, Version: -1,
		Hash: vcs.HashBytes(data), memo: &Memo{}}
	p.mutateSnap(func(s *snapshot) { s.overrides = withEntry(s.overrides, path, &entryState{e: e}) })
	p.notify(path, e)
}

// ClearOverride removes a temporary deployment; subscribers are re-fed the
// committed value (rollback).
func (p *Proxy) ClearOverride(path string) {
	snap := p.snap.Load()
	if _, ok := snap.overrides[path]; !ok {
		return
	}
	p.mutateSnap(func(s *snapshot) { s.overrides = withEntry(s.overrides, path, nil) })
	if st, ok := snap.entries[path]; ok {
		p.notify(path, st.e)
	}
}

// CachedPaths lists the paths currently in the in-memory cache or
// overridden (the application-visible config set on this server).
func (p *Proxy) CachedPaths() []string {
	snap := p.snap.Load()
	seen := make(map[string]bool, len(snap.entries)+len(snap.overrides))
	out := make([]string, 0, len(snap.entries)+len(snap.overrides))
	for path := range snap.entries {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for path := range snap.overrides {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
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
// Read is the hot path: one atomic snapshot load plus map lookups, safe
// from any goroutine, and allocation-free when the path is in memory
// (BenchmarkProxyRead asserts 0 allocs/op).
func (p *Proxy) Read(path string) ReadResult {
	snap := p.snap.Load()
	now := p.net.Now()
	if !snap.down {
		if st, ok := snap.overrides[path]; ok {
			return ReadResult{Entry: st.e, Source: SourceFresh, OK: true}
		}
		if st, ok := snap.entries[path]; ok {
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
	// Fall back to the on-disk cache (proxy down or not yet fetched).
	e, ok := p.disk.Load(path)
	if !ok {
		return ReadResult{Source: SourceStale}
	}
	p.Obs.Add("proxy.read.stale", 1)
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
		if p.watched[m.Path] && len(p.byPath[m.Path]) == 0 {
			p.fetchFrom(ctx, m.Path, p.observer(), true, m.Attempt, false)
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
	var base Entry // zero: no bytes, no digest
	if old, ok := p.snap.Load().entries[m.Path]; ok {
		if m.Zxid <= old.e.Zxid {
			return // already current (or newer) — nothing to resolve
		}
		if old.e.Exists {
			base = old.e
		}
	}
	p.recordSuccess(ctx, from, -1)
	p.receive(ctx, from, m.Update, base, false, 0)
}

// receive is the one place an update from an observer — pushed, or fetched on
// the given attempt — becomes an entry. Its content is base's own when the
// observer confirmed that (notModified), else the payload resolved against base.
func (p *Proxy) receive(ctx *simnet.Context, from simnet.NodeID, u zeus.Update, base Entry, notModified bool, attempt int) {
	e := Entry{Path: u.Path, Exists: !u.Delete, Version: u.Version, Zxid: u.Zxid, Fetched: ctx.Now()}
	if notModified {
		e.Data, e.Hash = base.Data, base.Hash
	} else if !u.Delete {
		var err error
		if e.Data, e.Hash, err = u.Payload.Resolve(base.Data, base.Hash); err != nil {
			p.resolveFailed(ctx, u.Path, u.Payload, from, attempt)
			return
		}
	}
	p.apply(ctx, e, from)
}

// resolveFailed handles a payload that did not materialize. A delta miss is
// ours to repair — it was made against a version we do not hold (missed
// event, restart, a disk-cache base older than the observer's) — so demand
// the full snapshot. A full body that does not hash to what it claims is the
// sender's fault: refuse it, charge the observer, and retry like any other
// failed fetch.
func (p *Proxy) resolveFailed(ctx *simnet.Context, path string, pl zeus.Payload, from simnet.NodeID, attempt int) {
	if pl.IsDelta {
		p.deltaFallback(ctx, path)
		return
	}
	p.Obs.Add("proxy.payload.bad_full", 1)
	p.fetchFailed(ctx, path, from, attempt)
}

// apply integrates a new entry if it is not older than what we have. via
// is the observer that delivered it (the upstream hop in the push tree).
func (p *Proxy) apply(ctx *simnet.Context, e Entry, via simnet.NodeID) {
	snap := p.snap.Load()
	old, had := snap.entries[e.Path]
	if had && e.Zxid < old.e.Zxid {
		return
	}
	changed := !had || old.e.Zxid != e.Zxid
	e.Path = intern.Path(e.Path)
	st := &entryState{e: e}
	if changed {
		st.e.memo = &Memo{}
	} else {
		// Same version re-confirmed (e.g. a not-modified refresh): keep
		// the decode memo and the first-read mark.
		st.e.memo = old.e.memo
		st.readMark.Store(old.readMark.Load())
	}
	p.mutateSnap(func(s *snapshot) { s.entries = withEntry(s.entries, e.Path, st) })
	p.disk.storeOwned(e)
	if changed {
		p.Obs.PathEvent(e.Path, obs.PropEvent{
			Stage: obs.EvProxyMaterialize, Node: string(p.id), Via: string(via),
			Zxid: e.Zxid, At: ctx.Now(),
		})
		p.notify(e.Path, st.e)
	}
}
