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
// a cell table that finds a path's cell. The first inlineCells cells live in
// the store itself, a fixed array scanned in place and published by an atomic
// count, so a small proxy has no map at all; the ninth moves the table into
// the published snapshot, which then maps paths to cells. An immutable object
// is read where it lives, not copied out: Lookup is life-word load → table
// find → snapshot load → cell load, and hands back a pointer to the version's
// entry, its Source and its decode memo — no mutex, no allocation, no copy, no
// clock read, safe from any application goroutine concurrently with updates.
// Read is Lookup with the entry copied out and a degraded read's age added. A
// new version of a known path, pushed or fetched, is one entryState and one
// pointer store; a path the proxy has not heard of fills an inline slot, and
// past inlineCells swaps the snapshot (the one case that clones the map); an
// override or the plane-down flag swaps it too — on the single-threaded
// simulation loop, never by a reader. The same pointer is the on-disk cache.
//
// Crashes. The proxy process is its simnet node: it crashes and restarts with
// Network.Fail and Network.Recover like any other node, and its memory is the
// node's life (simnet.Life). Every state and override records the life that
// made it, and Lookup, Want, CachedPaths and the heartbeat load the node's
// life word: a state from an earlier life is the on-disk copy, served stale
// with its decode memo withheld and advertised as the fetch base until the
// refetch lands. The rest of the process's memory — an earlier life's fetches,
// observer health, overrides, the plane verdict — is dropped when the node is
// Restarted.
//
// Cache misses cannot touch the simulator's event queue from
// a reader goroutine, so Lookup records them in a thread-safe pending set and
// wakes the proxy's keep-alive; the proxy drains the set (issuing fetch+watch)
// on its next message or keep-alive tick.
//
// Liveness. The proxy pings its observer every pingInterval and fails over
// after maxPingMisses unanswered pings, but only while something can go
// wrong: the tick grid is a simnet.Lease, which stands the chain down once
// the last ping was answered and no fault holds on the pair, and wakes it on
// a fault call or a read miss. A quiet fleet sends no pings at all.
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
// from and, for a degraded read, how long ago the proxy last confirmed it
// with an observer (0 on a fresh read).
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
	memo     Memo   // e.memo points here (or at a re-confirmed version's first state)
	life     uint32 // the proxy life that made it; onDisk for a state planted from disk
}

// onDisk is the life of a planted state: odd, so it is never a live one.
const onDisk = ^uint32(0)

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

// snapshot is what readers load: the overrides, the flag and, past
// inlineCells cells, the cell table. It and its maps are never mutated after
// publication; writers clone-and-swap.
type snapshot struct {
	entries   map[string]*cell       // nil while the store's inline slots hold every cell
	overrides map[string]*entryState // canary temporary deployments win
	planeDown bool                   // every observer considered dead
}

// inlineCells is how many cells a store keeps inline, found by a scan rather
// than a map: one Go map group, and every cell a push_wave proxy holds.
const inlineCells = 8

// store is a cell table and its publication point: a proxy's, or a bare
// DiskCache's.
type store struct {
	// n counts the cells in small, which is the whole table while n is at
	// most inlineCells. Each slot is written once, under wmu, before n
	// publishes it, and never rewritten. The ninth cell publishes a snapshot
	// whose entries hold the whole table, then sets n past inlineCells.
	n     atomic.Int32
	small [inlineCells]struct {
		path string
		c    *cell
	}
	// snap is the read snapshot. Readers do one atomic load; writers
	// serialize on wmu, clone, and swap.
	snap atomic.Pointer[snapshot]
	wmu  sync.Mutex
	// epoch counts the cells planted from disk: with the proxy's life, what
	// can change what Read returns without notifying anyone.
	epoch atomic.Uint64
}

// Proxy is the per-server config proxy. It is a simnet node; the local
// applications call its methods directly (they share the server).
// Lookup, Age and Read (and the client library's Get built on them) are safe
// to call from any goroutine; every other method belongs to the
// simulation/driver thread.
type Proxy struct {
	id        simnet.NodeID
	net       *simnet.Network
	life      *simnet.Life    // the node's: its process memory is one life's
	observers []simnet.NodeID // observers in this cluster
	stats     []obsStats      // parallel to observers
	current   int             // index of the connected observer
	store

	inflight map[int64]fetchState // reqID -> outstanding fetch
	nextReq  int64

	// Cache misses observed by reader goroutines. Readers cannot touch the
	// simulator's event queue, so Lookup parks the path here, wakes the lease,
	// and the proxy drains the set (Want-ing each path) on its next message
	// or tick.
	missMu      sync.Mutex
	missSet     map[string]struct{}
	missPending atomic.Bool

	// onChange, when set, hears every notify: a new version applied, an
	// override set or cleared.
	onChange UpdateFunc

	rtts            []time.Duration // recent fetch RTTs (hedge delay source)
	lease           *simnet.Lease   // the ping tick grid, queued only while it can matter
	pingOutstanding int

	// Convergence-heartbeat config (EnableMonitor): the monitor node and
	// cadence. "" = monitoring off.
	monTarget simnet.NodeID
	monEvery  time.Duration

	// Stats.
	Fetches     uint64
	WatchEvents uint64
	Failovers   uint64
	// StaleReads counts Lookups served from the on-disk copy; atomic
	// because applications read concurrently.
	StaleReads atomic.Uint64

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
		disk.s.each(func(c *cell) {
			if st := c.st.Load(); st != nil {
				p.plant(p.cell(c.path), st.e)
			}
		})
	}
	if len(observers) > 0 {
		p.current = int(net.RNG().Intn(len(observers)))
	}
	net.AddNode(id, placement, p)
	p.life = net.Life(id)
	p.lease = net.NewLease(id, pingInterval, msgTickPing{}, p.observer())
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

// find returns path's cell, nil when the table has none, and the snapshot it
// read to find it, nil while the table is inline. It takes no lock: n is
// loaded before the snapshot, so a count past inlineCells always meets a
// snapshot that holds the whole table, and a slot below the count is never
// rewritten.
func (s *store) find(path string) (*cell, *snapshot) {
	n := int(s.n.Load())
	if n > inlineCells {
		snap := s.snap.Load()
		return snap.entries[path], snap
	}
	for i := range s.small[:n] {
		if s.small[i].path == path {
			return s.small[i].c, nil
		}
	}
	return nil, nil
}

// each calls fn on every cell, in no set order: a caller whose walk reaches a
// send or an output sorts.
func (s *store) each(fn func(*cell)) {
	n := int(s.n.Load())
	if n > inlineCells {
		for _, c := range s.snap.Load().entries {
			fn(c)
		}
		return
	}
	for i := range s.small[:n] {
		fn(s.small[i].c)
	}
}

// cell returns the record for path, adding it on first sight: into the next
// inline slot, or past inlineCells into a new snapshot.
func (s *store) cell(path string) *cell {
	if c, _ := s.find(path); c != nil {
		return c
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if c, _ := s.find(path); c != nil {
		return c // added by a racing DiskCache.Store
	}
	c := &cell{path: intern.Path(path)}
	switch n := s.n.Load(); {
	case n < inlineCells:
		s.small[n].path, s.small[n].c = c.path, c
		s.n.Store(n + 1)
	case n == inlineCells: // the table moves into the snapshot
		next := *s.snap.Load()
		next.entries = make(map[string]*cell, inlineCells+1)
		for _, sl := range s.small {
			next.entries[sl.path] = sl.c
		}
		next.entries[c.path] = c
		s.snap.Store(&next)
		s.n.Store(n + 1)
	default:
		next := *s.snap.Load()
		next.entries = with(next.entries, c.path, c)
		s.snap.Store(&next)
	}
	return c
}

// mem returns the state c holds in the live process's memory: nil when it is
// empty or holds only what an earlier life left — the on-disk copy.
func (p *Proxy) mem(c *cell) *entryState {
	if st := c.st.Load(); st != nil && st.life == p.life.Load() {
		return st
	}
	return nil
}

// plant makes e the cell's on-disk copy, in nobody's memory.
func (s *store) plant(c *cell, e Entry) {
	e.Path, e.memo = c.path, nil
	c.st.Store(&entryState{e: e, life: onDisk})
	s.epoch.Add(1)
}

// Epoch counts the transitions after which Read may return something else
// without a notify having fired: a crash, a restart, and a cell planted from
// disk. Every other change to what Read returns notifies (OnChange).
func (p *Proxy) Epoch() uint64 { return p.epoch.Load() + uint64(p.life.Load()) }

// OnChange installs fn to hear every transition that notifies subscribers, with
// the entry they get: a new version applied (a delete included), SetOverride
// and ClearOverride. Unlike Subscribe it neither wants the path nor keeps it
// warm. One per proxy; a later call replaces it.
func (p *Proxy) OnChange(fn UpdateFunc) { p.onChange = fn }

// ID returns the proxy's node id.
func (p *Proxy) ID() simnet.NodeID { return p.id }

// Disk exposes the on-disk cache: a view of the cells' surviving side.
func (p *Proxy) Disk() *DiskCache { return &DiskCache{s: &p.store} }

// PlaneDown reports whether the proxy currently considers every observer
// unreachable (the distribution plane lost).
func (p *Proxy) PlaneDown() bool { return p.snap.Load().planeDown }

// restarted starts the proxy's new life with a cold memory: the states the
// last one made are its on-disk copies now, and the rest of what it kept —
// fetches, observer health, RTTs, overrides, the plane verdict — is dropped.
// What this life did before Restarted reached it (a Want or an override at
// the Recover instant) is kept. Application subscriptions survive (the apps
// share the server and resubscribe implicitly), dead ones are pruned.
// (Recover re-anchored the lease.)
func (p *Proxy) restarted(ctx *simnet.Context) {
	life := p.life.Load()
	maps.DeleteFunc(p.inflight, func(_ int64, f fetchState) bool { return f.life != life })
	p.each(func(c *cell) {
		c.reqs = slices.DeleteFunc(c.reqs, func(id int64) bool {
			_, ok := p.inflight[id]
			return !ok
		})
		p.pruneSubs(c)
	})
	p.mutateSnap(func(s *snapshot) {
		// An override set since Recover, at this instant, is this life's.
		s.overrides = maps.Clone(s.overrides)
		maps.DeleteFunc(s.overrides, func(_ string, st *entryState) bool { return st.life != life })
		s.planeDown = false
	})
	clear(p.stats)
	p.rtts = nil
	p.pingOutstanding = 0
	if p.monTarget != "" {
		ctx.SetTimer(p.monEvery, msgTickMonitor{})
	}
	// Re-fetch everything the applications subscribed to, advertising the
	// on-disk hashes; a delta that no longer applies falls back to a full
	// snapshot. A path this life already fetches is left to that fetch.
	p.resubscribe(ctx, p.watchedCells(), false)
}

// Down reports whether the proxy process is crashed.
func (p *Proxy) Down() bool { return p.life.Down() }

// Want asks the proxy to fetch and keep a config warm (with a watch). The
// application's startup request path. Simulation/driver thread only —
// reader goroutines warm paths implicitly through Lookup's miss set.
func (p *Proxy) Want(path string) {
	if p.life.Down() {
		return
	}
	ctx := simnet.MakeContext(p.net, p.id)
	c := p.cell(path)
	c.watched = true
	if p.mem(c) == nil {
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
	p.lease.Wake()
}

// drainMisses turns reader-recorded cache misses into fetches. Runs on the
// simulation thread (any message handler), so worst-case warm-up lag is one
// tick: a miss wakes the lease, which queues the next tick on the grid.
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
	c, _ := p.find(path)
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
			continue
		}
		kept = append(kept, s)
	}
	c.subs = kept
}

// notify fires the change hook and the live subscriptions for a path, pruning
// dead ones.
func (p *Proxy) notify(c *cell, e Entry) {
	if p.onChange != nil {
		p.onChange(e)
	}
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
	st := &entryState{e: Entry{Path: c.path, Exists: true, Data: data, Version: -1, Hash: vcs.HashBytes(data)}, life: p.life.Load()}
	st.e.memo = &st.memo
	p.mutateSnap(func(s *snapshot) { s.overrides = with(s.overrides, c.path, st) })
	p.notify(c, st.e)
}

// ClearOverride removes a temporary deployment; subscribers are re-fed what
// Read now serves (rollback): the committed version, its on-disk copy, or an
// entry that does not exist when the path was never fetched.
func (p *Proxy) ClearOverride(path string) {
	snap := p.snap.Load()
	if _, ok := snap.overrides[path]; !ok {
		return
	}
	p.mutateSnap(func(s *snapshot) {
		s.overrides = maps.Clone(s.overrides)
		delete(s.overrides, path)
	})
	c, _ := p.find(path) // SetOverride made it
	e := Entry{Path: c.path}
	if st, src := p.snap.Load().serve(path, c, p.life.Load()); st != nil {
		e = st.e
		if src == SourceStale {
			e.memo = nil // an earlier life's decodes died with it
		}
	}
	p.notify(c, e)
}

// CachedPaths lists, sorted, the paths currently in the in-memory cache or
// overridden (the application-visible config set on this server).
func (p *Proxy) CachedPaths() []string {
	snap := p.snap.Load()
	life := p.life.Load()
	var out []string
	p.each(func(c *cell) {
		if _, src := snap.serve(c.path, c, life); src != SourceStale {
			out = append(out, c.path)
		}
	})
	slices.Sort(out)
	return out
}

// Overridden reports whether path currently has a canary override.
func (p *Proxy) Overridden(path string) bool {
	_, ok := p.snap.Load().overrides[path]
	return ok
}

// serve is the read rule for path, whose cell is c (nil for a path never
// heard of), with no side effect: while the process is up, its override, then
// what it holds in memory (fresh, or cached while the plane is down);
// otherwise the on-disk copy, stale — nil for a path never fetched.
func (s *snapshot) serve(path string, c *cell, life uint32) (*entryState, Source) {
	var st *entryState // the newest version applied, in memory or only on disk
	if c != nil {
		st = c.st.Load()
	}
	if life&1 == 0 { // up
		if ov := s.overrides[path]; ov != nil && ov.life == life {
			return ov, SourceFresh
		}
		if st != nil && st.life == life { // in memory: Proxy.mem's test
			if s.planeDown {
				return st, SourceCached
			}
			return st, SourceFresh
		}
	}
	return st, SourceStale
}

// Lookup is the read hot path: the config at path by reference, degrading
// through the layers — override and memory while the proxy process is up
// (fresh if the plane is healthy, cached if not), then the on-disk cache
// (stale) — the paper's choice of availability over freshness. Source says
// how degraded a read is, for a caller that would rather refuse.
//
// e points at the version's immutable entry (nil when no layer holds the
// path) and must not be written through. memo is the version's decode slot,
// nil on a stale read: decodes do not survive the process that made them, so
// a stale caller must not reach for e.Memo() either. The clock is read only
// to record a version's first read.
func (p *Proxy) Lookup(path string) (e *Entry, src Source, memo *Memo) {
	life := p.life.Load()
	c, snap := p.find(path)
	if snap == nil {
		snap = p.snap.Load()
	}
	st, src := snap.serve(path, c, life)
	if src != SourceStale {
		if mark := st.readMark.Load(); mark < st.e.Zxid {
			p.firstRead(st, mark)
		}
		if src == SourceCached {
			p.Obs.Add("proxy.read.degraded", 1)
		}
		return &st.e, src, st.e.memo
	}
	if life&1 == 0 {
		p.noteMiss(path) // up but not in memory: warm it for next time
	}
	if st == nil {
		return nil, src, nil
	}
	p.StaleReads.Add(1)
	return &st.e, src, nil
}

// firstRead records the first application read of st's version, whose read
// mark was mark: CAS, so exactly one racing reader records it.
func (p *Proxy) firstRead(st *entryState, mark int64) {
	if st.readMark.CompareAndSwap(mark, st.e.Zxid) {
		p.Obs.PathEvent(st.e.Path, obs.PropEvent{
			Stage: obs.EvClientRead, Node: string(p.id),
			Zxid: st.e.Zxid, At: p.net.Now(),
		})
	}
}

// Age is how long ago the proxy last confirmed e with an observer: the
// staleness a degraded read reports.
func (p *Proxy) Age(e *Entry) time.Duration { return p.net.Now().Sub(e.Fetched) }

// Read is Lookup with the entry copied out and, on a degraded read, its Age.
// TestReadZeroAllocWarm asserts it allocates nothing, fresh or stale.
func (p *Proxy) Read(path string) ReadResult {
	e, src, memo := p.Lookup(path)
	if e == nil {
		return ReadResult{Source: src}
	}
	r := ReadResult{Entry: *e, Source: src, OK: true}
	r.memo = memo
	if src != SourceFresh {
		r.Age = p.Age(e)
	}
	return r
}

// HandleMessage implements simnet.Handler.
func (p *Proxy) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if _, ok := msg.(simnet.Restarted); ok {
		p.restarted(ctx) // first: misses read in the new life fetch in it
	}
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
		if !p.lease.Renew(p.settled()) {
			return // quiet: the lease stands in for pings until a fault or a miss
		}
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

// OnWake implements simnet.Waker: a quiet stretch of the keep-alive ended,
// and its stand-in pings count as the pongs they would have been. Each was
// answered, so none is outstanding; a ping in flight when a fault lands is a
// real one (the lease runs that tick before the fault).
func (p *Proxy) OnWake(peer simnet.NodeID, answered int) {
	p.stat(peer).ok += answered
	p.pingOutstanding = 0
}

// onWatchEvent takes a pushed update: the base is whatever we hold now.
func (p *Proxy) onWatchEvent(ctx *simnet.Context, from simnet.NodeID, m zeus.MsgWatchEvent) {
	c := p.cell(m.Path)
	var base Entry // zero: no bytes, no digest
	if old := p.mem(c); old != nil {
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
	old := p.mem(c)
	if old != nil && e.Zxid < old.e.Zxid {
		return
	}
	changed := old == nil || old.e.Zxid != e.Zxid
	st := &entryState{e: e, life: p.life.Load()}
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
