package zeus_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/stats"
	"configerator/internal/zeus"
)

// mapSweep is the observer's session bookkeeping as it was before the dense
// session table: a last-contact map walked whole on every tick, and watch
// sets as plain member maps. It is the reference the observer is held to.
type mapSweep struct {
	lastContact map[simnet.NodeID]time.Time
	watches     map[string]map[simnet.NodeID]bool
	removed     map[string]map[simnet.NodeID]bool // ids that left a path's set, for coverage

	refreshed, pruned, boundary, rewatched int
}

func newMapSweep() *mapSweep {
	return &mapSweep{
		lastContact: make(map[simnet.NodeID]time.Time),
		watches:     make(map[string]map[simnet.NodeID]bool),
		removed:     make(map[string]map[simnet.NodeID]bool),
	}
}

func (r *mapSweep) unwatch(path string, id simnet.NodeID) {
	if set := r.watches[path]; set[id] {
		delete(set, id)
		if r.removed[path] == nil {
			r.removed[path] = make(map[simnet.NodeID]bool)
		}
		r.removed[path][id] = true
		if len(set) == 0 {
			delete(r.watches, path)
		}
	}
}

// receive mirrors what the observer records of one message.
func (r *mapSweep) receive(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case zeus.MsgPing:
		r.lastContact[from] = ctx.Now()
	case zeus.MsgFetch:
		r.lastContact[from] = ctx.Now()
		if m.Watch {
			set := r.watches[m.Path]
			if set == nil {
				set = make(map[simnet.NodeID]bool)
				r.watches[m.Path] = set
			}
			if !set[from] && r.removed[m.Path][from] {
				r.rewatched++
			}
			set[from] = true
		}
	case zeus.MsgUnwatch:
		r.unwatch(m.Path, from)
	}
}

// prune is the map sweep, loop for loop.
func (r *mapSweep) prune(ctx *simnet.Context) {
	now := ctx.Now()
	var dead []simnet.NodeID
	for proxy, seen := range r.lastContact {
		if now.Sub(seen) == zeus.WatchSessionTTL {
			r.boundary++
		}
		if now.Sub(seen) <= zeus.WatchSessionTTL {
			continue
		}
		if heard, _ := ctx.Heard(proxy); now.Sub(heard) <= zeus.WatchSessionTTL {
			r.lastContact[proxy] = heard
			r.refreshed++
			continue
		}
		dead = append(dead, proxy)
	}
	for _, proxy := range dead {
		delete(r.lastContact, proxy)
		r.pruned++
		for path := range r.watches {
			r.unwatch(path, proxy)
		}
	}
}

// twinObserver is an observer's node handler that feeds every message to
// the observer and to a mapSweep, and after each tick checks that the two
// hold the same live sessions and watch sets. It also tallies what the
// observer's tick did with the sessions it holds, for the coverage check.
type twinObserver struct {
	t   *testing.T
	o   *zeus.Observer
	ref *mapSweep

	wakes   uint64                 // LeaseWakes as of the last tick
	causes  []string               // what bumped LeaseWakes since the last tick, as the fleet recorded it
	pending map[simnet.NodeID]bool // unparked, and not renewed or pruned since
	cov     sweepCoverage
}

// sweepCoverage counts what the observers' ticks did with their sessions.
type sweepCoverage struct {
	parks                                 int
	unparks                               map[string]int // by what ended the lease stretch
	renewedAfterUnpark, prunedAfterUnpark int
}

func (c *sweepCoverage) add(o sweepCoverage) {
	c.parks += o.parks
	c.renewedAfterUnpark += o.renewedAfterUnpark
	c.prunedAfterUnpark += o.prunedAfterUnpark
	for k, v := range o.unparks {
		c.unparks[k] += v
	}
}

func newTwinObserver(t *testing.T, o *zeus.Observer) *twinObserver {
	return &twinObserver{t: t, o: o, ref: newMapSweep(),
		pending: make(map[simnet.NodeID]bool), cov: sweepCoverage{unparks: make(map[string]int)}}
}

func (w *twinObserver) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if !zeus.IsObserverTick(msg) {
		w.ref.receive(ctx, from, msg)
		w.o.HandleMessage(ctx, from, msg)
		return
	}
	w.ref.prune(ctx) // before the observer's tick: both sweep at the same instant
	before := w.sessions(ctx)
	woke := ctx.LeaseWakes() != w.wakes
	w.wakes = ctx.LeaseWakes()
	w.o.HandleMessage(ctx, from, msg)
	if diff := w.diff(); diff != "" {
		w.t.Fatalf("%s at %v: the parked sweep and the map sweep disagree:\n%s", ctx.Self(), ctx.Now(), diff)
	}
	w.tally(before, w.sessions(ctx), woke)
}

func (w *twinObserver) OnRestart(ctx *simnet.Context) { w.o.OnRestart(ctx) }

func (w *twinObserver) sessions(ctx *simnet.Context) map[simnet.NodeID]zeus.SessionState {
	s, err := w.o.Sessions()
	if err != nil {
		w.t.Fatalf("%s at %v: %v", ctx.Self(), ctx.Now(), err)
	}
	return s
}

// tally counts one tick: every session parked before it is unparked when
// LeaseWakes moved, a session parked after it and not before (or unparked
// by it) was parked, and an unparked session's next renewal or prune is
// counted once.
func (w *twinObserver) tally(before, after map[simnet.NodeID]zeus.SessionState, woke bool) {
	unparked := 0
	for id, s := range before {
		if s.Parked && woke {
			unparked++
			w.pending[id] = true
		}
	}
	if unparked > 0 {
		for _, c := range w.causes {
			w.cov.unparks[c]++
		}
		if len(w.causes) == 0 {
			w.cov.unparks["proxy"]++ // a proxy's own Point or Wake
		}
	}
	w.causes = w.causes[:0]
	for id, s := range after {
		if s.Parked && (woke || !before[id].Parked) {
			w.cov.parks++
		}
	}
	for id := range w.pending {
		switch s, ok := after[id]; {
		case !ok:
			w.cov.prunedAfterUnpark++
			delete(w.pending, id)
		case s.Due != before[id].Due:
			w.cov.renewedAfterUnpark++
			delete(w.pending, id)
		}
	}
}

func (w *twinObserver) diff() string {
	var out []string
	sessions, err := w.o.Sessions()
	if err != nil {
		return err.Error()
	}
	for id := range w.ref.lastContact {
		if _, ok := sessions[id]; !ok {
			out = append(out, fmt.Sprintf("  %s: no session, want one", id))
		}
	}
	for id := range sessions {
		if _, ok := w.ref.lastContact[id]; !ok {
			out = append(out, fmt.Sprintf("  %s: session the map sweep pruned", id))
		}
	}
	got := w.o.Watchers()
	for path, set := range w.ref.watches {
		var want []simnet.NodeID
		for id := range set {
			want = append(want, id)
		}
		slices.Sort(want)
		have := slices.Clone(got[path])
		slices.Sort(have)
		if !slices.Equal(have, want) {
			out = append(out, fmt.Sprintf("  %s: watchers %v, want %v", path, got[path], want))
		}
	}
	for path, ids := range got {
		if _, ok := w.ref.watches[path]; !ok {
			out = append(out, fmt.Sprintf("  %s: watchers %v, want none", path, ids))
		}
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}

// leaser is a lease-backed watcher the fleet re-points and wakes by hand:
// a proxy's keep-alive and watch without the rest of the proxy.
type leaser struct {
	id    simnet.NodeID
	peer  simnet.NodeID
	lease *simnet.Lease
	out   bool // a ping is unanswered
}

type leaserTick struct{}

func (l *leaser) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch msg.(type) {
	case leaserTick:
		if l.lease.Renew(!l.out) {
			l.out = true
			ctx.Send(l.peer, zeus.MsgPing{})
		}
	case zeus.MsgPong:
		if from == l.peer {
			l.out = false
		}
	}
}

// sweepFleet is a small fleet for the sweep comparison: a three-member
// ensemble, two clusters of two twin observers, four proxies per cluster
// watching two paths, two lease-less watchers per cluster that fetch,
// unwatch and re-watch by hand (the observer hears them only directly, or
// through Heard's fallback while they are up and unfaulted), and one leaser
// per cluster.
type sweepFleet struct {
	net      *simnet.Network
	twins    []*twinObserver
	proxies  []*proxy.Proxy
	ghosts   []simnet.NodeID
	leasers  []*leaser
	clusters map[simnet.NodeID][]simnet.NodeID // node -> its cluster's observers
}

var sweepPaths = []string{"/sweep/a", "/sweep/b"}

func newSweepFleet(t *testing.T, seed uint64) *sweepFleet {
	net := simnet.New(simnet.DefaultLatency(), seed)
	ens := zeus.StartEnsemble(net, 3, []simnet.Placement{
		{Region: "us", Cluster: "zk1"}, {Region: "us", Cluster: "zk2"}, {Region: "eu", Cluster: "zk3"},
	})
	f := &sweepFleet{net: net, clusters: make(map[simnet.NodeID][]simnet.NodeID)}
	for _, c := range []string{"c1", "c2"} {
		place := simnet.Placement{Region: "us", Cluster: c}
		var obsIDs []simnet.NodeID
		for i := 0; i < 2; i++ {
			id := simnet.NodeID(fmt.Sprintf("obs-%s-%d", c, i))
			tw := newTwinObserver(t, zeus.NewObserver(id, ens.Members))
			net.AddNode(id, place, tw)
			zeus.StartObserverTicks(net, id)
			f.twins = append(f.twins, tw)
			obsIDs = append(obsIDs, id)
		}
		for i := 0; i < 4; i++ {
			px := proxy.New(net, simnet.NodeID(fmt.Sprintf("px-%s-%d", c, i)), place, obsIDs, nil)
			f.proxies = append(f.proxies, px)
			f.clusters[px.ID()] = obsIDs
		}
		for i := 0; i < 2; i++ {
			id := simnet.NodeID(fmt.Sprintf("ghost-%s-%d", c, i))
			net.AddNode(id, place, simnet.HandlerFunc(func(*simnet.Context, simnet.NodeID, simnet.Message) {}))
			f.ghosts = append(f.ghosts, id)
			f.clusters[id] = obsIDs
		}
		l := &leaser{id: simnet.NodeID("leaser-" + c), peer: obsIDs[0]}
		net.AddNode(l.id, place, l)
		l.lease = net.NewLease(l.id, 2*time.Second, leaserTick{}, l.peer)
		f.send(l.id, l.peer, zeus.MsgFetch{Path: sweepPaths[0], Watch: true})
		f.leasers = append(f.leasers, l)
		f.clusters[l.id] = obsIDs
	}
	writer := zeus.NewClient("sweep-writer", ens.Members)
	net.AddNode("sweep-writer", simnet.Placement{Region: "us", Cluster: "ctrl"}, writer)
	net.RunFor(10 * time.Second) // elect
	for i := 0; i < 24; i++ {
		path, v := sweepPaths[i%len(sweepPaths)], i
		net.After(time.Duration(i)*10*time.Second, func() {
			ctx := simnet.MakeContext(net, "sweep-writer")
			writer.Write(&ctx, path, []byte(fmt.Sprintf(`{"v":%d}`, v)), nil)
		})
	}
	for _, px := range f.proxies {
		for _, p := range sweepPaths {
			px.Want(p)
		}
	}
	return f
}

// send delivers msg from a lease-less watcher, if it is up.
func (f *sweepFleet) send(from, to simnet.NodeID, msg simnet.Message) {
	if !f.net.IsDown(from) {
		ctx := simnet.MakeContext(f.net, from)
		ctx.Send(to, msg)
	}
}

// call is a plan step that runs fn and records kind as a cause with every
// observer whose LeaseWakes it moved.
func (f *sweepFleet) call(at time.Duration, kind string, fn func()) simnet.PlanOption {
	return simnet.WithCall(at, kind, func() {
		before := f.wakes()
		fn()
		f.blame(kind, before)
	})
}

func (f *sweepFleet) wakes() []uint64 {
	out := make([]uint64, len(f.twins))
	for i, tw := range f.twins {
		ctx := simnet.MakeContext(f.net, tw.o.ID())
		out[i] = ctx.LeaseWakes()
	}
	return out
}

func (f *sweepFleet) blame(kind string, before []uint64) {
	for i, w := range f.wakes() {
		if w != before[i] {
			f.twins[i].causes = append(f.twins[i].causes, kind)
		}
	}
}

// randomPlan scripts count random faults over span: proxy crash and
// restart, observer crash and restart, two-way and one-way cuts, loss, a
// proxy cut from each of its observers in turn (failover away and back),
// lease-less watchers that fetch, unwatch, re-watch and crash, and leasers
// re-pointed away and back, or woken.
func (f *sweepFleet) randomPlan(rng *stats.RNG, count int, span time.Duration) *simnet.FaultPlan {
	at := func() time.Duration { return time.Duration(rng.Intn(int(span/time.Millisecond))) * time.Millisecond }
	hold := func() time.Duration { return time.Duration(2000+rng.Intn(20000)) * time.Millisecond }
	net := f.net
	var opts []simnet.PlanOption
	for i := 0; i < count; i++ {
		start, d := at(), hold()
		px := f.proxies[rng.Intn(len(f.proxies))]
		id := px.ID()
		obsIDs := f.clusters[id]
		o := obsIDs[rng.Intn(len(obsIDs))]
		ghost := f.ghosts[rng.Intn(len(f.ghosts))]
		l := f.leasers[rng.Intn(len(f.leasers))]
		switch kind := rng.Intn(9); kind {
		case 0:
			opts = append(opts, f.call(start, "proxy crash", px.Crash), f.call(start+d, "proxy restart", px.Restart))
		case 1:
			opts = append(opts, f.call(start, "observer crash", func() { net.Fail(o) }),
				f.call(start+d, "observer restart", func() { net.Recover(o) }))
		case 2:
			opts = append(opts, f.call(start, "fault", func() { net.Partition(id, o) }),
				f.call(start+d, "fault", func() { net.Heal(id, o) }))
		case 3:
			from, to := id, o
			if rng.Bool(0.5) {
				from, to = o, id
			}
			opts = append(opts, f.call(start, "fault", func() { net.PartitionOneWay(from, to) }),
				f.call(start+d, "fault", func() { net.HealOneWay(from, to) }))
		case 4:
			opts = append(opts, f.call(start, "fault", func() { net.SetLoss(id, o, 0.5) }),
				f.call(start+d, "fault", func() { net.SetLoss(id, o, 0) }))
		case 5: // away and back: whichever observer it is on, one of these cuts moves it off and a later one back
			for j := 0; j < 3; j++ {
				cut := obsIDs[j%2]
				t0 := start + time.Duration(j)*20*time.Second
				opts = append(opts, f.call(t0, "fault", func() { net.Partition(id, cut) }),
					f.call(t0+15*time.Second, "fault", func() { net.Heal(id, cut) }))
			}
		case 6:
			gobs := f.clusters[ghost][rng.Intn(2)]
			path := sweepPaths[rng.Intn(len(sweepPaths))]
			opts = append(opts,
				simnet.WithCall(start, "ghost-watch", func() { f.send(ghost, gobs, zeus.MsgFetch{Path: path, Watch: true}) }),
				simnet.WithCall(start+d, "ghost-unwatch", func() { f.send(ghost, gobs, zeus.MsgUnwatch{Path: path}) }),
				simnet.WithCall(start+2*d, "ghost-rewatch", func() { f.send(ghost, gobs, zeus.MsgFetch{Path: path, Watch: true}) }))
			if rng.Bool(0.5) {
				opts = append(opts, simnet.WithCrash(start+3*d, ghost), simnet.WithRestart(start+5*d, ghost))
			}
		case 7: // a leaser moves its watch and keep-alive to the other observer, and later back
			lobs := f.clusters[l.id]
			repoint := func(to simnet.NodeID) func() {
				return func() {
					if to == l.peer {
						return
					}
					f.send(l.id, l.peer, zeus.MsgUnwatch{Path: sweepPaths[0]})
					l.peer, l.out = to, false
					l.lease.Point(to)
					f.send(l.id, to, zeus.MsgFetch{Path: sweepPaths[0], Watch: true})
				}
			}
			opts = append(opts, f.call(start, "point", repoint(lobs[1])), f.call(start+d, "point", repoint(lobs[0])))
		case 8: // a leaser's reader found work: Wake acts before the loop's next event
			opts = append(opts, simnet.WithCall(start, "wake", func() {
				before := f.wakes()
				l.lease.Wake()
				net.After(0, func() { f.blame("wake", before) })
			}))
		}
	}
	return simnet.NewFaultPlan(opts...)
}

// TestDenseSweepMatchesMapSweep runs random fault schedules on a small fleet
// and checks, after every observer tick, that the observer decides as the
// map sweep it replaced does: the same live sessions (its table and its
// parked list together, each proxy once) and the same watchers of every
// path. Deadlines are not compared: a parked session's lags the map
// sweep's, and one looked at earlier than the map sweep would may lead it.
// The schedules must reach every branch of the sweep — a session looked at
// exactly at its deadline, one renewed through Heard, one pruned, a watcher
// that comes back to a set it left — and of parking: sessions parked, and
// unparked by a fault call, a Lease.Wake, a re-Point, a proxy crash and an
// observer crash or restart, then renewed or pruned.
func TestDenseSweepMatchesMapSweep(t *testing.T) {
	var total mapSweep
	cov := sweepCoverage{unparks: make(map[string]int)}
	for seed := uint64(1); seed <= 8; seed++ {
		f := newSweepFleet(t, seed)
		plan := f.randomPlan(stats.NewRNG(seed), 24, 200*time.Second)
		plan.Apply(f.net)
		f.net.RunFor(300 * time.Second)
		if plan.Fired() != plan.Len() {
			t.Fatalf("seed %d: plan fired %d of %d", seed, plan.Fired(), plan.Len())
		}
		for _, tw := range f.twins {
			total.boundary += tw.ref.boundary
			total.refreshed += tw.ref.refreshed
			total.pruned += tw.ref.pruned
			total.rewatched += tw.ref.rewatched
			cov.add(tw.cov)
		}
	}
	t.Logf("sessions at their deadline %d, renewed through Heard %d, pruned %d; re-watches %d",
		total.boundary, total.refreshed, total.pruned, total.rewatched)
	t.Logf("parks %d; unparks %v; after an unpark, renewed %d, pruned %d",
		cov.parks, cov.unparks, cov.renewedAfterUnpark, cov.prunedAfterUnpark)
	if total.boundary == 0 || total.refreshed == 0 || total.pruned == 0 || total.rewatched == 0 {
		t.Errorf("the schedules missed a branch: deadline %d, renewed %d, pruned %d, re-watched %d",
			total.boundary, total.refreshed, total.pruned, total.rewatched)
	}
	if cov.parks == 0 || cov.renewedAfterUnpark == 0 || cov.prunedAfterUnpark == 0 {
		t.Errorf("the schedules missed a parking branch: parks %d, renewed after an unpark %d, pruned after one %d",
			cov.parks, cov.renewedAfterUnpark, cov.prunedAfterUnpark)
	}
	for _, kind := range []string{"fault", "wake", "point", "proxy crash"} {
		if cov.unparks[kind] == 0 {
			t.Errorf("no parked session was unparked by a %s: %v", kind, cov.unparks)
		}
	}
	if cov.unparks["observer crash"]+cov.unparks["observer restart"] == 0 {
		t.Errorf("no parked session was unparked by an observer crash or restart: %v", cov.unparks)
	}
}
