package zeus

import (
	"sync"
	"time"

	"configerator/internal/intern"
	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// batchScratch is the per-applyBatch working state (touched-path bases,
// touch order). Batches arrive on every commit wave across every observer
// in the fleet, so the map is pooled rather than reallocated per batch; only
// scratch lives here — everything a watch event retains is copied out
// before the scratch is recycled.
type batchScratch struct {
	base  map[string]*Record
	order []string
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{base: make(map[string]*Record)}
}}

func (s *batchScratch) release() {
	for k := range s.base {
		delete(s.base, k)
	}
	s.order = s.order[:0]
	batchScratchPool.Put(s)
}

// watchSessionTTL expires a proxy's watch registrations when the proxy
// stops reaching this observer: it crashed, or a fault cut it off. A proxy
// keeps its session alive with a ping every ~2 s — sent for real while a
// fault holds, stood in for by its simnet lease while the pair is quiet — so
// four missed intervals mean the session is dead. Without this sweep every
// crashed proxy would leak its watch set here forever and keep receiving
// (dropped) events.
const watchSessionTTL = 8 * time.Second

// watchSet tracks the proxies watching one path in registration order.
// Notification order must be deterministic — each recipient's latency
// sample comes from the shared RNG, so map iteration order would make
// otherwise-identical runs diverge — and sorting 100k watchers on every
// event is too dear, so registration order it is.
// Removals (failover unwatch, session prune) just mark the member gone and
// leave a hole in the order slice; a proxy that comes back before the holes
// are compacted (failover away and back) takes its old slot again, so it is
// never listed twice. Holes are compacted lazily once they outnumber the
// live entries.
type watchSet struct {
	order []simnet.NodeID
	// members holds every id with a slot in order: true while it watches,
	// false once removed and until compaction drops its slot.
	members map[simnet.NodeID]bool
	n       int // live members
}

func newWatchSet() *watchSet {
	return &watchSet{members: make(map[simnet.NodeID]bool)}
}

func (w *watchSet) add(id simnet.NodeID) {
	live, slotted := w.members[id]
	if live {
		return
	}
	w.members[id] = true
	w.n++
	if !slotted {
		w.order = append(w.order, id)
	}
}

func (w *watchSet) remove(id simnet.NodeID) {
	if w.members[id] {
		w.members[id] = false
		w.n--
	}
}

// live appends the current members in registration order to buf and
// compacts the order slice when removals have left it mostly holes.
func (w *watchSet) live(buf []simnet.NodeID) []simnet.NodeID {
	buf = buf[:0]
	for _, id := range w.order {
		if w.members[id] {
			buf = append(buf, id)
		}
	}
	if len(w.order) > 2*len(buf)+8 {
		for _, id := range w.order {
			if !w.members[id] {
				delete(w.members, id)
			}
		}
		w.order = append(w.order[:0], buf...)
	}
	return buf
}

// session is one proxy's watch session at an observer: due is the instant
// (Unix ns) up to which the proxy counts as heard from.
type session struct {
	proxy simnet.NodeID
	due   int64
}

// Observer keeps a fully replicated read-only copy of the leader's data
// (§3.4). Each cluster runs several observers; the leader pushes committed
// writes to them asynchronously, and proxies in the cluster fetch configs
// from an observer and leave watches so that later updates are pushed the
// rest of the way down the tree.
type Observer struct {
	id      simnet.NodeID
	members []simnet.NodeID
	tree    *DataTree
	// watches maps path -> the ordered set of proxies to notify on change.
	watches map[string]*watchSet
	// notifyScratch is the reusable live-watcher list handed to Broadcast.
	notifyScratch []simnet.NodeID
	// prev holds each path's record as of the version before the current
	// one (nil if there was none): the base a proxy that is exactly one
	// version behind advertises, and therefore the base worth
	// delta-encoding fetch replies against.
	prev map[string]*Record
	// sessions holds one entry per proxy that pinged or fetched, due
	// watchSessionTTL after it was last heard from; a proxy heard from
	// neither directly nor through its lease (Context.Heard) by then has its
	// watch sessions pruned. parked holds the sessions whose lease, at their
	// last look, was standing in for their pings to this observer: no sweep
	// looks at them until a lease pinging this observer wakes (wakes, the
	// Context.LeaseWakes count as of the last sweep, moves). slot indexes
	// both by proxy, i ≥ 0 as sessions[i] and i < 0 as parked[-i-1]; an
	// entry leaving a table is swap-deleted.
	sessions []session
	parked   []session
	slot     map[simnet.NodeID]int32
	wakes    uint64

	// Notified counts watch events pushed (observability for benches).
	Notified uint64
	// Looked counts sessions the sweep compared against their deadline:
	// every unparked session, once per tick (observability for benches).
	Looked uint64

	// Obs, when set, receives a propagation event for every op this
	// observer applies (nil = no instrumentation).
	Obs *obs.Registry
}

// NewObserver constructs an observer attached to the given ensemble
// member list.
func NewObserver(id simnet.NodeID, members []simnet.NodeID) *Observer {
	return &Observer{
		id:      id,
		members: members,
		tree:    NewDataTree(),
		watches: make(map[string]*watchSet),
		prev:    make(map[string]*Record),
		slot:    make(map[simnet.NodeID]int32),
	}
}

// Tree exposes the observer's replica (tests/benches).
func (o *Observer) Tree() *DataTree { return o.tree }

// WatchCount reports how many proxies watch the given path.
func (o *Observer) WatchCount(path string) int {
	if set := o.watches[path]; set != nil {
		return set.n
	}
	return 0
}

// OnRestart implements simnet.Restarter: a recovered observer immediately
// re-registers (requesting catch-up from its last zxid) and re-arms its
// periodic registration timer.
func (o *Observer) OnRestart(ctx *simnet.Context) {
	o.register(ctx)
	ctx.SetTimer(observerRegisterGap, msgTickObserver{})
}

// register broadcasts a registration to all ensemble members; only the
// current leader responds and adds us to its push set. Broadcasting keeps
// the observer attached across leader failover without tracking epochs.
// It doubles as the delta hash-miss fallback: re-registering with our last
// zxid makes the leader ship everything after it as full bodies.
func (o *Observer) register(ctx *simnet.Context) {
	var msg simnet.Message = msgObserverRegister{LastZxid: o.tree.LastZxid()} // boxed once for every member
	for _, m := range o.members {
		ctx.Send(m, msg)
	}
}

// HandleMessage implements simnet.Handler.
func (o *Observer) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case msgTickObserver:
		o.register(ctx)
		o.pruneWatchSessions(ctx)
		ctx.SetTimer(observerRegisterGap, msgTickObserver{})
	case msgUpdates: // a live commit run or a catch-up: one shape, one path
		o.applyBatch(ctx, m.Updates)
	case MsgFetch:
		o.onFetch(ctx, from, m)
	case MsgUnwatch:
		if set := o.watches[m.Path]; set != nil {
			set.remove(from)
			if set.n == 0 {
				delete(o.watches, m.Path)
			}
		}
	case MsgPing:
		o.touch(from, ctx.Now())
		ctx.Send(from, MsgPong{})
	}
}

// touch records that a proxy was heard from at the given instant, opening
// its session if it has none. A parked session keeps its place.
func (o *Observer) touch(proxy simnet.NodeID, at time.Time) {
	due := at.Add(watchSessionTTL).UnixNano()
	switch i, ok := o.slot[proxy]; {
	case !ok:
		o.slot[proxy] = int32(len(o.sessions))
		o.sessions = append(o.sessions, session{proxy: proxy, due: due})
	case i < 0:
		o.parked[-i-1].due = due
	default:
		o.sessions[i].due = due
	}
}

// pruneWatchSessions drops the watch registrations (and sessions) of
// proxies not heard from past watchSessionTTL — crashed, or cut off by a
// fault. A session is only looked at once it is due: a proxy whose last
// recorded contact is stale may still have been heard through its lease
// (Context.Heard), which stands in for its pings while the pair is quiet and
// renews the session from the instant it reports. When that instant is a
// grid instant of a quiet stretch, Heard stays within one ping period of now
// until the stretch ends, so the session is parked: it can only be renewed
// until then, and the stretch's end bumps Context.LeaseWakes, which puts
// every parked session back in the table with the deadline it had. A quiet
// tick therefore costs one counter read and one comparison per session not
// parked. This is the observer-side half of the watch-session leak fix; the
// proxy also unwatches eagerly when it re-points.
func (o *Observer) pruneWatchSessions(ctx *simnet.Context) {
	if w := ctx.LeaseWakes(); w != o.wakes {
		o.wakes = w
		for _, s := range o.parked {
			o.slot[s.proxy] = int32(len(o.sessions))
			o.sessions = append(o.sessions, s)
		}
		o.parked = o.parked[:0]
	}
	o.Looked += uint64(len(o.sessions))
	now := ctx.Now()
	nowNS := now.UnixNano()
	for i := 0; i < len(o.sessions); {
		s := &o.sessions[i]
		if nowNS <= s.due {
			i++
			continue
		}
		heard, grid := ctx.Heard(s.proxy)
		if now.Sub(heard) > watchSessionTTL {
			o.dropSession(i) // slot i now holds the session that was last: look at it next
			continue
		}
		s.due = heard.Add(watchSessionTTL).UnixNano() // its lease stood in for pings
		if !grid {
			i++
			continue
		}
		parked := o.cut(i)
		o.slot[parked.proxy] = -int32(len(o.parked)) - 1
		o.parked = append(o.parked, parked)
	}
}

// cut swap-deletes session i from the table and returns it; the session that
// was last takes slot i.
func (o *Observer) cut(i int) session {
	s := o.sessions[i]
	last := len(o.sessions) - 1
	o.sessions[i] = o.sessions[last]
	o.slot[o.sessions[i].proxy] = int32(i)
	o.sessions = o.sessions[:last]
	return s
}

// dropSession deletes session i and removes its proxy from every watch set.
func (o *Observer) dropSession(i int) {
	proxy := o.cut(i).proxy
	delete(o.slot, proxy)
	for path, set := range o.watches {
		if set.members[proxy] {
			set.remove(proxy)
			o.Obs.Add("zeus.observer.watch_pruned", 1)
		}
		if set.n == 0 {
			delete(o.watches, path)
		}
	}
}

// applyBatch applies one batch of updates in zxid order and then notifies
// watchers once per touched path — rapid successive writes to one path
// coalesce into a single watch event carrying the final version. A payload
// that does not materialize (hash miss: this observer's base diverged, e.g.
// it restarted mid-stream) aborts the batch and falls back to a catch-up via
// re-registration.
func (o *Observer) applyBatch(ctx *simnet.Context, updates []Update) {
	// base holds each touched path's record before this batch — the
	// version watchers last saw, hence the delta base for their event.
	// Both structures are pooled scratch; nothing in them survives this call.
	scratch := batchScratchPool.Get().(*batchScratch)
	defer scratch.release()
	base, order := scratch.base, scratch.order
	defer func() { scratch.order = order }() // keep the grown capacity pooled
	for _, u := range updates {
		if u.Zxid <= o.tree.LastZxid() {
			continue // duplicate or stale (e.g. a catch-up overlapping a live push)
		}
		u.Path = intern.Path(u.Path)
		old, err := o.tree.take(u)
		if err != nil {
			o.Obs.Add("zeus.observer.delta_miss", 1)
			o.register(ctx)
			break // the catch-up ships this zxid onward as full bodies
		}
		o.prev[u.Path] = old
		o.Obs.PathEvent(u.Path, obs.PropEvent{
			Stage: obs.EvObserverApply, Node: string(o.id), Zxid: u.Zxid, At: ctx.Now(),
		})
		if _, seen := base[u.Path]; !seen {
			base[u.Path] = old
			order = append(order, u.Path)
		} else {
			o.Obs.Add("zeus.observer.coalesced", 1)
		}
	}
	for _, path := range order {
		set := o.watches[path]
		if set == nil || set.n == 0 {
			continue
		}
		// The event is the path's state after the batch, whatever came between.
		ev := MsgWatchEvent{Update{Path: path, Zxid: o.tree.DeletedAt(path), Delete: true}}
		if rec := o.tree.Get(path); rec != nil {
			ev.Update = Update{Path: path, Version: rec.Version, Zxid: rec.Zxid,
				Payload: MakePayload(base[path], rec)}
		}
		// One shared payload, serialization charged once for the wave,
		// recipients in registration order (deterministic — see watchSet).
		o.notifyScratch = set.live(o.notifyScratch)
		ctx.Broadcast(o.notifyScratch, ev, ev.Update.WireSize())
		o.Notified += uint64(len(o.notifyScratch))
	}
}

// onFetch answers a proxy's pull. The proxy advertises the hash of the
// content it already holds, so the reply is the cheapest of: "not
// modified", a delta against the previous version, or a full snapshot.
func (o *Observer) onFetch(ctx *simnet.Context, from simnet.NodeID, m MsgFetch) {
	o.touch(from, ctx.Now())
	if m.Watch {
		set, ok := o.watches[m.Path]
		if !ok {
			set = newWatchSet()
			o.watches[intern.Path(m.Path)] = set
		}
		set.add(from)
	}
	reply := MsgFetchReply{ReqID: m.ReqID,
		Update: Update{Path: m.Path, Zxid: o.tree.DeletedAt(m.Path), Delete: true}}
	if rec := o.tree.Get(m.Path); rec != nil {
		reply.Update = Update{Path: m.Path, Version: rec.Version, Zxid: rec.Zxid}
		prev := o.prev[m.Path]
		switch {
		case m.Have && m.HaveHash == rec.Hash:
			reply.NotModified = true
			o.Obs.Add("zeus.fetch.not_modified", 1)
		case m.Have && prev != nil && m.HaveHash == prev.Hash:
			reply.Payload = MakePayload(prev, rec)
			if reply.Payload.IsDelta {
				o.Obs.Add("zeus.fetch.delta", 1)
			} else {
				o.Obs.Add("zeus.fetch.full", 1)
			}
		default:
			reply.Payload = MakePayload(nil, rec)
			o.Obs.Add("zeus.fetch.full", 1)
		}
	}
	ctx.SendSized(from, reply, reply.WireSize())
}
