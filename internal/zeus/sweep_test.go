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
		if heard := ctx.Heard(proxy); now.Sub(heard) <= zeus.WatchSessionTTL {
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
// hold the same sessions and watch sets.
type twinObserver struct {
	t   *testing.T
	o   *zeus.Observer
	ref *mapSweep
}

func (w *twinObserver) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	tick := zeus.IsObserverTick(msg)
	if tick {
		w.ref.prune(ctx) // before the observer's tick: both sweep at the same instant
	} else {
		w.ref.receive(ctx, from, msg)
	}
	w.o.HandleMessage(ctx, from, msg)
	if tick {
		if diff := w.diff(); diff != "" {
			w.t.Fatalf("%s at %v: the dense sweep and the map sweep disagree:\n%s", ctx.Self(), ctx.Now(), diff)
		}
	}
}

func (w *twinObserver) OnRestart(ctx *simnet.Context) { w.o.OnRestart(ctx) }

func (w *twinObserver) diff() string {
	var out []string
	dues, err := w.o.SessionDeadlines()
	if err != nil {
		return err.Error()
	}
	for id, seen := range w.ref.lastContact {
		if due, ok := dues[id]; !ok {
			out = append(out, fmt.Sprintf("  %s: no session, want one due at %v", id, seen.Add(zeus.WatchSessionTTL)))
		} else if !due.Equal(seen.Add(zeus.WatchSessionTTL)) {
			out = append(out, fmt.Sprintf("  %s: session due at %v, want %v", id, due, seen.Add(zeus.WatchSessionTTL)))
		}
	}
	for id := range dues {
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

// sweepFleet is a small fleet for the sweep comparison: a three-member
// ensemble, two clusters of two twin observers, four proxies per cluster
// watching two paths, and two lease-less watchers per cluster that fetch,
// unwatch and re-watch by hand (the observer hears them only directly, or
// through Heard's fallback while they are up and unfaulted).
type sweepFleet struct {
	net      *simnet.Network
	twins    []*twinObserver
	proxies  []*proxy.Proxy
	ghosts   []simnet.NodeID
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
			tw := &twinObserver{t: t, o: zeus.NewObserver(id, ens.Members), ref: newMapSweep()}
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

// randomPlan scripts count random faults over span: proxy crash and
// restart, observer crash and restart, two-way and one-way cuts, loss, a
// proxy cut from each of its observers in turn (failover away and back), and
// lease-less watchers that fetch, unwatch, re-watch and crash.
func (f *sweepFleet) randomPlan(rng *stats.RNG, count int, span time.Duration) *simnet.FaultPlan {
	at := func() time.Duration { return time.Duration(rng.Intn(int(span/time.Millisecond))) * time.Millisecond }
	hold := func() time.Duration { return time.Duration(2000+rng.Intn(20000)) * time.Millisecond }
	var opts []simnet.PlanOption
	for i := 0; i < count; i++ {
		start, d := at(), hold()
		px := f.proxies[rng.Intn(len(f.proxies))]
		id := px.ID()
		obsIDs := f.clusters[id]
		o := obsIDs[rng.Intn(len(obsIDs))]
		ghost := f.ghosts[rng.Intn(len(f.ghosts))]
		switch kind := rng.Intn(7); kind {
		case 0:
			opts = append(opts, simnet.WithCall(start, "proxy-crash", px.Crash),
				simnet.WithCall(start+d, "proxy-restart", px.Restart))
		case 1:
			opts = append(opts, simnet.WithCrash(start, o), simnet.WithRestart(start+d, o))
		case 2:
			opts = append(opts, simnet.WithPartition(start, id, o), simnet.WithHeal(start+d, id, o))
		case 3:
			from, to := id, o
			if rng.Bool(0.5) {
				from, to = o, id
			}
			opts = append(opts, simnet.WithPartitionOneWay(start, from, to), simnet.WithHealOneWay(start+d, from, to))
		case 4:
			opts = append(opts, simnet.WithLoss(start, id, o, 0.5), simnet.WithLoss(start+d, id, o, 0))
		case 5: // away and back: whichever observer it is on, one of these cuts moves it off and a later one back
			for j := 0; j < 3; j++ {
				cut := obsIDs[j%2]
				t0 := start + time.Duration(j)*20*time.Second
				opts = append(opts, simnet.WithPartition(t0, id, cut), simnet.WithHeal(t0+15*time.Second, id, cut))
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
		}
	}
	return simnet.NewFaultPlan(opts...)
}

// TestDenseSweepMatchesMapSweep runs random fault schedules on a small fleet
// and checks, after every observer tick, that the observer's dense session
// table and its watch sets hold exactly what the map sweep it replaced
// holds: the same sessions, each due watchSessionTTL after the contact the
// map sweep recorded, and the same watchers of every path. The schedules
// must reach every branch of the sweep: a session looked at exactly at its
// deadline, one renewed through Heard, one pruned, and a watcher that comes
// back to a set it left.
func TestDenseSweepMatchesMapSweep(t *testing.T) {
	var total mapSweep
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
		}
	}
	t.Logf("sessions at their deadline %d, renewed through Heard %d, pruned %d; re-watches %d",
		total.boundary, total.refreshed, total.pruned, total.rewatched)
	if total.boundary == 0 || total.refreshed == 0 || total.pruned == 0 || total.rewatched == 0 {
		t.Errorf("the schedules missed a branch: deadline %d, renewed %d, pruned %d, re-watched %d",
			total.boundary, total.refreshed, total.pruned, total.rewatched)
	}
}
