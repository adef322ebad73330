package zeus

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// TestObserverSessionExpiry crashes an observer and asserts the leader
// expires its session, then restarts it and asserts it re-registers and
// catches up on the writes it missed.
func TestObserverSessionExpiry(t *testing.T) {
	net, e := testDeployment(t, 91)
	reg := obs.New()
	net.SetObs(reg)
	e.SetObs(reg)
	obsv := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second)

	c := addClient(net, e, "writer")
	write(t, net, c, "writer", "/sess/a", "v1")
	if e.LeaderServer().ObserverCount() != 1 {
		t.Fatalf("leader observer count = %d, want 1", e.LeaderServer().ObserverCount())
	}

	// Crash the observer: its registrations stop, and after the session
	// TTL the leader must expire it.
	net.Fail("obs-c1")
	net.RunFor(observerSessionTTL + 2*observerRegisterGap)
	if n := e.LeaderServer().ObserverCount(); n != 0 {
		t.Fatalf("leader still tracks %d observers after expiry window", n)
	}
	if reg.Counters().Get("zeus.observer.expired") == 0 {
		t.Error("zeus.observer.expired counter never incremented")
	}

	// Write while the observer is down, then restart: re-registration must
	// bring both the session and the missed data back.
	write(t, net, c, "writer", "/sess/a", "v2")
	net.Recover("obs-c1")
	net.RunFor(10 * time.Second)
	if e.LeaderServer().ObserverCount() != 1 {
		t.Fatalf("observer did not re-register after restart")
	}
	rec := obsv.Tree().Get("/sess/a")
	if rec == nil || string(rec.Data) != "v2" {
		t.Fatalf("observer did not catch up: %v", rec)
	}
}

// TestObserverWatchPruning registers a watch from a proxy node that then
// crashes; the observer must prune the dead watch session rather than leak
// it and keep pushing events into the void. The prune lands on the first
// observer tick more than watchSessionTTL after the watch's fetch arrived —
// the instant a proxy that pinged until it crashed would be pruned at. (A
// watcher that is merely silent, up and with no fault on its link, is alive:
// nothing stands in for a crashed one.)
func TestObserverWatchPruning(t *testing.T) {
	net, e := testDeployment(t, 92)
	reg := obs.New()
	net.SetObs(reg)
	e.SetObs(reg)
	anchor := net.Now() // the observer's register-and-prune tick grid starts here
	obsv := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second)

	c := addClient(net, e, "writer")
	write(t, net, c, "writer", "/prune/x", "v1")

	sink := simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {})
	net.AddNode("ghost-proxy", simnet.Placement{Region: "us-west", Cluster: "c1"}, sink)
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "ghost-proxy")
		ctx.Send("obs-c1", MsgFetch{ReqID: 1, Path: "/prune/x", Watch: true})
	})
	for obsv.WatchCount("/prune/x") == 0 && net.Step() {
	}
	registered := net.Now()
	net.RunFor(2 * time.Second)
	if obsv.WatchCount("/prune/x") != 1 {
		t.Fatalf("watch not registered: count = %d", obsv.WatchCount("/prune/x"))
	}

	net.Fail("ghost-proxy")
	want := anchor
	for !want.After(registered.Add(watchSessionTTL)) {
		want = want.Add(observerRegisterGap)
	}
	for obsv.WatchCount("/prune/x") != 0 && net.Now().Before(want.Add(time.Minute)) && net.Step() {
	}
	if n := obsv.WatchCount("/prune/x"); n != 0 {
		t.Fatalf("dead watch session leaked: count = %d", n)
	}
	if got := net.Now(); !got.Equal(want) {
		t.Errorf("pruned at %v after registration, want %v", got.Sub(registered), want.Sub(registered))
	}
	if reg.Counters().Get("zeus.observer.watch_pruned") == 0 {
		t.Error("zeus.observer.watch_pruned counter never incremented")
	}
}

// TestWatchSetRewatchKeepsOneSlot: a proxy that unwatches and re-watches a
// path (failover away and back, a hedge win away and back) is notified once
// per change, in the slot it first registered in; once compaction has
// dropped its slot, a re-watch appends it like any newcomer.
func TestWatchSetRewatchKeepsOneSlot(t *testing.T) {
	w := newWatchSet()
	w.add("a")
	w.add("b")
	w.remove("a")
	w.add("a")
	if got := w.live(nil); !slices.Equal(got, []simnet.NodeID{"a", "b"}) {
		t.Fatalf("live after a re-watch = %v, want [a b]", got)
	}
	if w.n != 2 {
		t.Fatalf("live count = %d, want 2", w.n)
	}

	for i := 0; i < 10; i++ {
		w.add(simnet.NodeID(fmt.Sprintf("x%d", i)))
	}
	w.remove("a")
	for i := 0; i < 10; i++ {
		w.remove(simnet.NodeID(fmt.Sprintf("x%d", i)))
	}
	if got := w.live(nil); !slices.Equal(got, []simnet.NodeID{"b"}) || len(w.order) != 1 {
		t.Fatalf("live = %v over %d slots, want [b] compacted to one slot", got, len(w.order))
	}
	w.add("a")
	if got := w.live(nil); !slices.Equal(got, []simnet.NodeID{"b", "a"}) {
		t.Fatalf("live after compaction and a re-watch = %v, want [b a]", got)
	}
}

// TestRegisterBoxesMessageOnce: an observer's registration goes to every
// ensemble member as one boxed message. Past zxid 255 boxing it once per
// member allocates once per member on every tick; one register at a zxid
// past 2³² allocates at most once.
func TestRegisterBoxesMessageOnce(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 1)
	place := simnet.Placement{Region: "us", Cluster: "c1"}
	var members []simnet.NodeID
	for i := 0; i < 5; i++ {
		id := simnet.NodeID(fmt.Sprintf("member-%d", i))
		net.AddNode(id, place, simnet.HandlerFunc(func(*simnet.Context, simnet.NodeID, simnet.Message) {}))
		members = append(members, id)
	}
	o := NewObserver("obs", members)
	net.AddNode("obs", place, o)
	o.tree.Apply(WriteOp{Zxid: 1 << 32, Path: "/p", Data: []byte("x"), Version: 1})
	ctx := simnet.MakeContext(net, "obs")
	register := func() {
		o.register(&ctx)
		net.RunFor(time.Second) // deliver, so the queue does not grow
	}
	register()
	if a := testing.AllocsPerRun(100, register); a > 1 {
		t.Fatalf("one register to %d members allocates %.1f, want at most 1", len(members), a)
	}
}
