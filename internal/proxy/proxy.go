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

	"configerator/internal/health"
	"configerator/internal/intern"
	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
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
// and then shared by every proxy that receives it, by each proxy's snapshot
// and its disk cache, and by every reader. Nothing may write to them.
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

// DiskCache is the on-disk cache shared between the proxy process and the
// client library's failure fallback. It survives proxy crashes. It is
// safe for concurrent use: reader goroutines fall back to it while the
// simulation loop stores updates.
type DiskCache struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewDiskCache returns an empty cache.
func NewDiskCache() *DiskCache {
	return &DiskCache{entries: make(map[string]Entry)}
}

// Store persists an entry. The data is copied: a caller mutating its slice
// afterwards cannot corrupt the cache. The in-memory decode memo does not
// survive the trip to disk.
// An entry that arrives without a digest is hashed here, once, so everything
// loaded back carries one.
func (d *DiskCache) Store(e Entry) {
	e.Data = append([]byte(nil), e.Data...)
	if e.Exists && e.Hash == 0 {
		e.Hash = vcs.HashBytes(e.Data)
	}
	d.storeOwned(e)
}

// storeOwned is Store for the proxy's own snapshot entries, whose Data is
// already immutable and whose digest is known: the cache takes the slice by
// reference.
func (d *DiskCache) storeOwned(e Entry) {
	e.memo = nil
	d.mu.Lock()
	d.entries[e.Path] = e
	d.mu.Unlock()
}

// Load returns the entry for path. The data is a copy: a subscriber
// mutating the returned bytes cannot corrupt the cache.
func (d *DiskCache) Load(path string) (Entry, bool) {
	d.mu.RLock()
	e, ok := d.entries[path]
	d.mu.RUnlock()
	if ok {
		e.Data = append([]byte(nil), e.Data...)
	}
	return e, ok
}

// Len reports the number of cached configs.
func (d *DiskCache) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

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

const (
	pingInterval  = 2 * time.Second
	fetchTimeout  = 3 * time.Second
	maxPingMisses = 2

	// Retry backoff: base<<attempt up to the cap, jittered ±50%.
	backoffBase = 500 * time.Millisecond
	backoffCap  = 8 * time.Second

	// Hedging: a second fetch to another observer fires if the first has
	// not answered within max(hedgeMinDelay, observed p99 fetch RTT).
	hedgeMinDelay = 250 * time.Millisecond

	// planeDownAfter consecutive failures marks one observer dead; when
	// every observer is dead the distribution plane is considered down.
	planeDownAfter = 2

	// rttWindow caps the fetch-RTT history used for the hedge delay.
	rttWindow = 64
)

type msgTickPing struct{}
type msgFetchTimeout struct{ ReqID int64 }
type msgRetryFetch struct {
	Path    string
	Attempt int
}
type msgHedgeFire struct{ ReqID int64 }

// fetchState is one outstanding fetch: the path, the base entry whose hash
// we advertised (so a "not modified" or delta reply can be materialized
// against it), and which observer we asked when.
type fetchState struct {
	path     string
	base     Entry
	haveBase bool
	observer simnet.NodeID
	sentAt   time.Time
	attempt  int
	hedge    bool
}

// obsStats is the per-observer health ledger behind failover decisions.
type obsStats struct {
	ok         int
	fail       int
	consecFail int
	rttEWMA    float64 // milliseconds
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

// ObserverHealth exposes the per-observer health samples feeding failover
// (tests and dashboards).
func (p *Proxy) ObserverHealth() map[simnet.NodeID]health.Sample {
	out := make(map[simnet.NodeID]health.Sample, len(p.observers))
	for _, o := range p.observers {
		out[o] = p.sampleOf(o)
	}
	return out
}

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

func (p *Proxy) observer() simnet.NodeID {
	if len(p.observers) == 0 {
		return ""
	}
	return p.observers[p.current%len(p.observers)]
}

func (p *Proxy) stat(id simnet.NodeID) *obsStats {
	st, ok := p.stats[id]
	if !ok {
		st = &obsStats{}
		p.stats[id] = st
	}
	return st
}

// sampleOf folds one observer's ledger into a health sample. Consecutive
// failures dominate the score (each one outweighs any latency), so a dead
// observer always ranks below a slow one.
func (p *Proxy) sampleOf(id simnet.NodeID) health.Sample {
	st := p.stat(id)
	er := float64(st.consecFail)
	if total := st.ok + st.fail; total > 0 {
		er += float64(st.fail) / float64(total)
	}
	return health.Sample{
		health.MetricErrorRate: er,
		health.MetricLatencyMs: st.rttEWMA,
	}
}

func (p *Proxy) recordFailure(id simnet.NodeID) {
	if id == "" {
		return
	}
	st := p.stat(id)
	st.fail++
	st.consecFail++
	if !p.snap.Load().planeDown && p.allObserversDead() {
		p.mutateSnap(func(s *snapshot) { s.planeDown = true })
		p.Obs.Add("proxy.plane.down", 1)
	}
}

func (p *Proxy) recordSuccess(ctx *simnet.Context, id simnet.NodeID, rtt time.Duration) {
	st := p.stat(id)
	st.ok++
	st.consecFail = 0
	if rtt >= 0 {
		ms := float64(rtt) / float64(time.Millisecond)
		if st.rttEWMA == 0 {
			st.rttEWMA = ms
		} else {
			st.rttEWMA = 0.8*st.rttEWMA + 0.2*ms
		}
	}
	if p.snap.Load().planeDown {
		// The plane healed: resubscribe everything. Fetches advertise the
		// hashes we hold, so catch-up is a delta (or "not modified") per
		// path, falling back to full snapshots where our base diverged.
		p.mutateSnap(func(s *snapshot) { s.planeDown = false })
		p.Obs.Add("proxy.plane.heal", 1)
		p.resubscribe(ctx, p.watchedPaths(), false)
	}
}

func (p *Proxy) allObserversDead() bool {
	if len(p.observers) == 0 {
		return true
	}
	for _, o := range p.observers {
		if p.stat(o).consecFail < planeDownAfter {
			return false
		}
	}
	return true
}

// backoff computes the retry delay for the given attempt: exponential from
// backoffBase up to backoffCap, jittered to 50–100% of the step with the
// network's deterministic RNG so runs stay reproducible.
func (p *Proxy) backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	half := int64(d / 2)
	return time.Duration(half + int64(p.net.RNG().Uint64()%uint64(half)))
}

// hedgeDelay derives the hedged-fetch trigger from the observed p99 fetch
// RTT — hedges fire only for outlier-slow fetches, not the common case.
func (p *Proxy) hedgeDelay() time.Duration {
	if len(p.rtts) == 0 {
		return 4 * hedgeMinDelay
	}
	// The p99 of a window of at most 100 samples is its largest.
	return max(hedgeMinDelay, slices.Max(p.rtts))
}

func (p *Proxy) recordRTT(rtt time.Duration) {
	if len(p.rtts) >= rttWindow {
		copy(p.rtts, p.rtts[1:])
		p.rtts = p.rtts[:rttWindow-1]
	}
	p.rtts = append(p.rtts, rtt)
}

// failover replaces the current observer with the healthiest alternative
// (health-scored; deterministic tie-break), or round-robins when the whole
// plane looks dead and scores cannot distinguish candidates. The old
// observer is told to drop our watches so its watch table does not leak
// registrations until its own session sweep fires.
func (p *Proxy) failover(ctx *simnet.Context) {
	if len(p.observers) <= 1 {
		return
	}
	old := p.observer()
	planeDown := p.snap.Load().planeDown
	if planeDown {
		p.current = (p.current + 1) % len(p.observers)
	} else {
		samples := make(map[simnet.NodeID]health.Sample, len(p.observers)-1)
		for _, o := range p.observers {
			if o != old {
				samples[o] = p.sampleOf(o)
			}
		}
		best := health.Rank(samples)[0].ID
		for i, o := range p.observers {
			if o == best {
				p.current = i
			}
		}
	}
	p.Failovers++
	p.pingOutstanding = 0
	p.Obs.Add("proxy.failover", 1)
	paths := p.watchedPaths()
	for _, path := range paths {
		ctx.Send(old, zeus.MsgUnwatch{Path: path})
	}
	// Re-establish fetches+watches on the new observer, bypassing the
	// single-flight guard (the old observer may never answer). When the
	// plane is down this would be a refetch storm every timeout — the
	// per-path backoff retries own recovery instead.
	if !planeDown {
		p.resubscribe(ctx, paths, true)
	}
}

// watchedPaths lists the watched paths in sorted order: anything that sends
// once per path must not walk the map, because every send draws its link
// jitter from the network's shared RNG and map order would make same-seed
// runs diverge.
func (p *Proxy) watchedPaths() []string {
	paths := make([]string, 0, len(p.watched))
	for path := range p.watched {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	return paths
}

// resubscribe is the one way the proxy (re-)establishes fetch+watch for a
// set of paths on its current observer — after a restart, when the plane
// heals, after a failover, for paths readers missed — in the order given,
// which callers keep sorted. force abandons whatever is outstanding for a
// path first; otherwise a path with a fetch already in flight is left to it.
func (p *Proxy) resubscribe(ctx *simnet.Context, paths []string, force bool) {
	for _, path := range paths {
		if force {
			p.dropPath(path)
		}
		p.sendFetch(ctx, path)
	}
}

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

// InflightCount reports how many fetches are outstanding (leak checks).
func (p *Proxy) InflightCount() int { return len(p.inflight) }

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

// sendFetch issues a fetch unless one is already in flight for the path
// (single-flight: a second Want before the reply arrives must not send a
// second MsgFetch).
func (p *Proxy) sendFetch(ctx *simnet.Context, path string) {
	if len(p.byPath[path]) > 0 {
		p.Obs.Add("proxy.fetch.singleflight", 1)
		return
	}
	p.doFetch(ctx, path, true, 0)
}

// forceFetch abandons all outstanding fetches for the path and issues a
// new one (failover, or delta fallback with advertise=false to demand a
// full snapshot).
func (p *Proxy) forceFetch(ctx *simnet.Context, path string, advertise bool) {
	p.dropPath(path)
	p.doFetch(ctx, path, advertise, 0)
}

// dropPath forgets every outstanding fetch for a path.
func (p *Proxy) dropPath(path string) {
	for _, id := range p.byPath[path] {
		delete(p.inflight, id)
	}
	delete(p.byPath, path)
}

// dropReq forgets one outstanding fetch.
func (p *Proxy) dropReq(reqID int64) {
	st, ok := p.inflight[reqID]
	if !ok {
		return
	}
	delete(p.inflight, reqID)
	ids := p.byPath[st.path]
	kept := ids[:0]
	for _, id := range ids {
		if id != reqID {
			kept = append(kept, id)
		}
	}
	if len(kept) == 0 {
		delete(p.byPath, st.path)
	} else {
		p.byPath[st.path] = kept
	}
}

// doFetch sends a fetch to the current observer and arms its deadline and
// hedge timers.
func (p *Proxy) doFetch(ctx *simnet.Context, path string, advertise bool, attempt int) {
	p.fetchFrom(ctx, path, p.observer(), advertise, attempt, false)
}

func (p *Proxy) fetchFrom(ctx *simnet.Context, path string, target simnet.NodeID, advertise bool, attempt int, hedge bool) {
	p.nextReq++
	st := fetchState{path: path, observer: target, sentAt: ctx.Now(), attempt: attempt, hedge: hedge}
	if advertise {
		if es, ok := p.snap.Load().entries[path]; ok && es.e.Exists {
			st.base, st.haveBase = es.e, true
		} else if e, ok := p.disk.Load(path); ok && e.Exists {
			st.base, st.haveBase = e, true
		}
	}
	p.inflight[p.nextReq] = st
	p.byPath[path] = append(p.byPath[path], p.nextReq)
	p.Fetches++
	p.Obs.Add("proxy.fetch.sent", 1)
	if target == "" {
		return
	}
	m := zeus.MsgFetch{ReqID: p.nextReq, Path: path, Watch: true}
	if st.haveBase {
		m.Have = true
		m.HaveHash = st.base.Hash
	}
	ctx.Send(target, m)
	ctx.SetTimer(fetchTimeout, msgFetchTimeout{ReqID: p.nextReq})
	if !hedge && len(p.observers) > 1 {
		ctx.SetTimer(p.hedgeDelay(), msgHedgeFire{ReqID: p.nextReq})
	}
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
			p.doFetch(ctx, m.Path, true, m.Attempt)
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

// onFetchTimeout handles a fetch deadline expiring: mark the observer
// unhealthy, fail over off it if it is still current, and schedule a
// backed-off retry if no sibling fetch (hedge) remains in flight.
func (p *Proxy) onFetchTimeout(ctx *simnet.Context, m msgFetchTimeout) {
	st, ok := p.inflight[m.ReqID]
	if !ok {
		return
	}
	p.dropReq(m.ReqID)
	p.Obs.Add("proxy.fetch.timeout", 1)
	p.fetchFailed(ctx, st.path, st.observer, st.attempt)
}

// fetchFailed charges a failed attempt at path to the observer that owed
// the answer, fails over off it if it is still current, and schedules a
// backed-off retry unless another fetch for the path is already in flight.
func (p *Proxy) fetchFailed(ctx *simnet.Context, path string, observer simnet.NodeID, attempt int) {
	p.recordFailure(observer)
	if observer == p.observer() {
		p.failover(ctx)
	}
	if p.watched[path] && len(p.byPath[path]) == 0 {
		attempt++
		ctx.SetTimer(p.backoff(attempt), msgRetryFetch{Path: path, Attempt: attempt})
		p.Obs.Add("proxy.fetch.retry", 1)
	}
}

// onHedgeFire sends the hedged duplicate of a still-unanswered fetch to
// the next-healthiest observer. First reply wins; the loser is discarded
// by the byPath sweep in onFetchReply.
func (p *Proxy) onHedgeFire(ctx *simnet.Context, m msgHedgeFire) {
	st, ok := p.inflight[m.ReqID]
	if !ok {
		return // answered already — the common case
	}
	samples := make(map[simnet.NodeID]health.Sample, len(p.observers)-1)
	for _, o := range p.observers {
		if o != st.observer {
			samples[o] = p.sampleOf(o)
		}
	}
	if len(samples) == 0 {
		return
	}
	p.Obs.Add("proxy.fetch.hedged", 1)
	p.fetchFrom(ctx, st.path, health.Rank(samples)[0].ID, st.haveBase, st.attempt, true)
}

func (p *Proxy) onFetchReply(ctx *simnet.Context, from simnet.NodeID, m zeus.MsgFetchReply) {
	st, ok := p.inflight[m.ReqID]
	if !ok {
		return
	}
	rtt := ctx.Now().Sub(st.sentAt)
	// First reply wins: discard the sibling (primary or hedge) before the
	// success bookkeeping, so a plane-heal resubscribe sweep sees this
	// path as idle and re-establishes its watch too.
	p.dropPath(st.path)
	// The replying observer holds our watch now (fetches register it); if
	// it is not the observer we point at — a hedge won, or we failed over
	// while the fetch was in flight — re-point at it, else its pushes
	// would be discarded as stale and the path would freeze.
	if from != p.observer() {
		for i, o := range p.observers {
			if o == from {
				p.current = i
				p.pingOutstanding = 0
			}
		}
	}
	p.recordRTT(rtt)
	p.recordSuccess(ctx, from, rtt)
	if st.hedge {
		p.Obs.Add("proxy.fetch.hedge_won", 1)
	}
	if m.NotModified && !st.haveBase {
		// The observer claims our copy is current but we advertised
		// nothing — protocol confusion; demand the full snapshot.
		p.Obs.Add("proxy.delta.fallback", 1)
		p.forceFetch(ctx, m.Path, false)
		return
	}
	p.receive(ctx, from, m.Update, st.base, m.NotModified, st.attempt)
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
// the given attempt — becomes an entry: the content is base's own when the
// observer confirmed it (notModified), else what the payload resolves to
// against base.
func (p *Proxy) receive(ctx *simnet.Context, from simnet.NodeID, u zeus.Update, base Entry, notModified bool, attempt int) {
	e := Entry{Path: u.Path, Exists: !u.Delete, Version: u.Version, Zxid: u.Zxid, Fetched: ctx.Now()}
	switch {
	case u.Delete:
	case notModified:
		e.Data, e.Hash = base.Data, base.Hash
	default:
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
		p.Obs.Add("proxy.delta.fallback", 1)
		p.forceFetch(ctx, path, false)
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
