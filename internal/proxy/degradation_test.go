package proxy

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// degRig is a rig that also keeps the observer handles and an obs registry,
// for the graceful-degradation tests.
type degRig struct {
	*rig
	reg  *obs.Registry
	obs1 *zeus.Observer
	obs2 *zeus.Observer
}

func newDegRig(t *testing.T, seed uint64) *degRig {
	t.Helper()
	reg := obs.New()
	net := simnet.New(simnet.DefaultLatency(), seed)
	net.SetObs(reg)
	placements := []simnet.Placement{
		{Region: "us", Cluster: "zk1"},
		{Region: "us", Cluster: "zk2"},
		{Region: "eu", Cluster: "zk3"},
	}
	ens := zeus.StartEnsemble(net, 3, placements)
	ens.SetObs(reg)
	o1 := ens.AddObserver("obs-1", simnet.Placement{Region: "us", Cluster: "web"})
	o2 := ens.AddObserver("obs-2", simnet.Placement{Region: "us", Cluster: "web"})
	cl := zeus.NewClient("tailer", ens.Members)
	net.AddNode("tailer", simnet.Placement{Region: "us", Cluster: "ctrl"}, cl)
	net.RunFor(10 * time.Second)
	if ens.Leader() == "" {
		t.Fatal("no leader")
	}
	px := New(net, "proxy-1", simnet.Placement{Region: "us", Cluster: "web"},
		[]simnet.NodeID{"obs-1", "obs-2"}, nil)
	px.Obs = reg
	return &degRig{
		rig:  &rig{net: net, ens: ens, client: cl, proxy: px},
		reg:  reg,
		obs1: o1,
		obs2: o2,
	}
}

// TestPartitionHealObserverFailover: a link partition (not a crash) between
// the proxy and its observer triggers failover via ping misses; after the
// link heals and the other observer dies, the proxy fails back and keeps
// receiving pushes throughout.
func TestPartitionHealObserverFailover(t *testing.T) {
	r := newDegRig(t, 21)
	r.write(t, "/configs/app", `v1`)
	var got []string
	r.proxy.Subscribe("/configs/app", func(e Entry) { got = append(got, string(e.Data)) })
	r.net.RunFor(2 * time.Second)

	first := r.proxy.observer()
	r.net.Partition("proxy-1", first)
	r.net.RunFor(15 * time.Second)
	second := r.proxy.observer()
	if second == first {
		t.Fatal("proxy did not fail over across the partition")
	}
	r.write(t, "/configs/app", `v2`)
	if e := r.proxy.Read("/configs/app"); string(e.Data) != "v2" {
		t.Fatalf("after failover, cache = %s", e.Data)
	}

	// Heal the first link, then cut down the second observer entirely: the
	// proxy must fail back to the healed one.
	r.net.Heal("proxy-1", first)
	r.net.Fail(second)
	r.net.RunFor(15 * time.Second)
	if cur := r.proxy.observer(); cur != first {
		t.Fatalf("proxy on %s after heal+fail, want %s", cur, first)
	}
	r.write(t, "/configs/app", `v3`)
	if e := r.proxy.Read("/configs/app"); string(e.Data) != "v3" {
		t.Fatalf("after fail-back, cache = %s", e.Data)
	}
	if len(got) == 0 || got[len(got)-1] != "v3" {
		t.Fatalf("subscriber missed updates: %v", got)
	}
	if c := r.reg.Counters().Get("proxy.failover"); c < 2 {
		t.Errorf("proxy.failover = %d, want >= 2", c)
	}
}

// TestStaleServeFullOutage is the stale-serve regression test: with the
// whole distribution plane gone, reads still succeed — served from the
// in-memory cache (and, after a proxy crash, from disk) with explicit
// staleness metadata.
func TestStaleServeFullOutage(t *testing.T) {
	r := newDegRig(t, 22)
	r.write(t, "/configs/app", `v1`)
	r.proxy.Want("/configs/app")
	r.net.RunFor(2 * time.Second)

	// Kill the entire plane.
	r.net.Fail("obs-1")
	r.net.Fail("obs-2")
	r.net.RunFor(20 * time.Second)
	if !r.proxy.PlaneDown() {
		t.Fatal("proxy did not mark the plane down")
	}
	if c := r.reg.Counters().Get("proxy.plane.down"); c == 0 {
		t.Error("proxy.plane.down counter not incremented")
	}

	// Reads keep working, marked as degraded (cached, not fresh).
	res := r.proxy.Read("/configs/app")
	if !res.OK || string(res.Data) != "v1" {
		t.Fatalf("outage read = %+v", res)
	}
	if res.Source != SourceCached {
		t.Errorf("outage read source = %q, want %q", res.Source, SourceCached)
	}
	if res.Age <= 0 {
		t.Errorf("outage read age = %v, want > 0", res.Age)
	}

	// After the proxy process also dies, reads degrade further to disk.
	r.proxy.Crash()
	res = r.proxy.Read("/configs/app")
	if !res.OK || string(res.Data) != "v1" {
		t.Fatalf("disk read = %+v", res)
	}
	if res.Source != SourceStale {
		t.Errorf("disk read source = %q, want %q", res.Source, SourceStale)
	}
}

// TestPlaneHealResubscribes: after a full plane outage ends, the proxy
// re-establishes its watches (delta or full-snapshot fallback) and catches
// up on versions committed during the outage.
func TestPlaneHealResubscribes(t *testing.T) {
	r := newDegRig(t, 23)
	r.write(t, "/configs/app", `v1`)
	var got []string
	r.proxy.Subscribe("/configs/app", func(e Entry) { got = append(got, string(e.Data)) })
	r.net.RunFor(2 * time.Second)

	r.net.Fail("obs-1")
	r.net.Fail("obs-2")
	r.net.RunFor(20 * time.Second)
	if !r.proxy.PlaneDown() {
		t.Fatal("plane not down")
	}
	r.write(t, "/configs/app", `v2`) // commits while the plane is dark

	r.net.Recover("obs-1")
	r.net.Recover("obs-2")
	r.net.RunFor(30 * time.Second) // observers re-register, proxy heals
	if r.proxy.PlaneDown() {
		t.Fatal("plane still marked down after recovery")
	}
	if c := r.reg.Counters().Get("proxy.plane.heal"); c == 0 {
		t.Error("proxy.plane.heal counter not incremented")
	}
	if e := r.proxy.Read("/configs/app"); string(e.Data) != "v2" {
		t.Fatalf("after heal, cache = %s, want v2", e.Data)
	}
	if len(got) == 0 || got[len(got)-1] != "v2" {
		t.Fatalf("subscriber did not catch up: %v", got)
	}
}

// TestWatchRegistrationNoLeak: repeated proxy crash-restart cycles must not
// accumulate watch registrations on the observer, duplicate in-flight
// fetch bookkeeping in the proxy, or dead subscriptions.
func TestWatchRegistrationNoLeak(t *testing.T) {
	r := newDegRig(t, 24)
	r.write(t, "/configs/app", `v1`)
	alive := true
	r.proxy.SubscribeWhile("/configs/app", func() bool { return alive }, func(Entry) {})
	r.net.RunFor(2 * time.Second)

	for cycle := 0; cycle < 5; cycle++ {
		r.proxy.Crash()
		r.net.RunFor(3 * time.Second)
		r.proxy.Restart()
		r.net.RunFor(5 * time.Second)
	}
	// One subscription, and at most one watch registration per observer —
	// not one per crash cycle.
	if n := r.proxy.SubCount("/configs/app"); n != 1 {
		t.Errorf("SubCount = %d after 5 restarts, want 1", n)
	}
	if n := r.obs1.WatchCount("/configs/app") + r.obs2.WatchCount("/configs/app"); n > 2 {
		t.Errorf("observer watch registrations = %d after 5 restarts, want <= 2", n)
	}
	if n := r.proxy.InflightCount(); n != 0 {
		t.Errorf("inflight fetches = %d after settling, want 0", n)
	}

	// Dead subscriptions are pruned, not leaked.
	alive = false
	r.write(t, "/configs/app", `v2`)
	if n := r.proxy.SubCount("/configs/app"); n != 0 {
		t.Errorf("SubCount = %d after subscriber died, want 0", n)
	}
}

// TestHedgeFiresOnSlowObserver: when the current observer's link turns slow,
// a fetch still unanswered after the hedge delay is duplicated to the other
// observer; its reply wins, the proxy re-points at the winner, and pushes
// from the winner are applied from then on.
func TestHedgeFiresOnSlowObserver(t *testing.T) {
	r := newDegRig(t, 23)
	r.write(t, "/configs/app", `v1`)
	r.write(t, "/configs/other", `o1`)
	r.proxy.Want("/configs/app")
	r.net.RunFor(2 * time.Second)
	if c := r.reg.Counters().Get("proxy.fetch.hedged"); c != 0 {
		t.Fatalf("proxy.fetch.hedged = %d on a healthy plane, want 0", c)
	}

	slow := r.proxy.observer()
	simnet.NewFaultPlan(simnet.WithLatencySpike(0, "proxy-1", slow, 1500*time.Millisecond)).Apply(r.net)
	r.net.RunFor(100 * time.Millisecond)
	r.proxy.Want("/configs/other")
	r.net.RunFor(time.Second) // past the hedge delay, before the slow reply
	if res := r.proxy.Read("/configs/other"); !res.OK || string(res.Data) != "o1" {
		t.Fatalf("read before the slow observer could answer = %+v", res)
	}
	counters := r.reg.Counters()
	if hedged, won := counters.Get("proxy.fetch.hedged"), counters.Get("proxy.fetch.hedge_won"); hedged < 1 || won < 1 {
		t.Errorf("proxy.fetch.hedged = %d, proxy.fetch.hedge_won = %d, want >= 1 each", hedged, won)
	}
	winner := r.proxy.observer()
	if winner == slow {
		t.Fatalf("proxy still points at the slow observer %s", slow)
	}
	r.write(t, "/configs/other", `o2`)
	if res := r.proxy.Read("/configs/other"); string(res.Data) != "o2" {
		t.Errorf("after the hedge won, a push from %s left the cache at %s", winner, res.Data)
	}

	// The hedge delay is the window's p99, which for a window of at most
	// rttWindow samples is its largest: the max loop agrees with the sort it
	// replaced at every length.
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= rttWindow; n++ {
		r.proxy.rtts = r.proxy.rtts[:0]
		for i := 0; i < n; i++ {
			r.proxy.recordRTT(time.Duration(rng.Int63n(int64(2 * time.Second))))
		}
		s := slices.Clone(r.proxy.rtts)
		slices.Sort(s)
		want := max(hedgeMinDelay, s[len(s)*99/100])
		if got := r.proxy.hedgeDelay(); got != want {
			t.Fatalf("hedgeDelay over %d samples = %v, sorted p99 = %v", n, got, want)
		}
	}
}
