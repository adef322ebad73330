package simnet

import (
	"testing"
	"time"

	"configerator/internal/obs"
)

// echoNode counts the messages it receives (Restarted is no message).
type echoNode struct{ got int }

func (e *echoNode) HandleMessage(ctx *Context, from NodeID, msg Message) {
	if _, ok := msg.(Restarted); !ok {
		e.got++
	}
}

func faultRig() (*Network, *obs.Registry, *echoNode, *echoNode) {
	net := New(DefaultLatency(), 7)
	reg := obs.New()
	net.SetObs(reg)
	a, b := &echoNode{}, &echoNode{}
	net.AddNode("a", Placement{Region: "us", Cluster: "c1"}, a)
	net.AddNode("b", Placement{Region: "us", Cluster: "c1"}, b)
	return net, reg, a, b
}

// TestFaultPlanSchedule scripts a partition → heal → crash → restart
// sequence and asserts every event fires at its offset, is mirrored into
// the obs counters, and actually affects delivery.
func TestFaultPlanSchedule(t *testing.T) {
	net, reg, _, b := faultRig()
	called := 0
	plan := NewFaultPlan(
		WithPartition(1*time.Second, "a", "b"),
		WithHeal(3*time.Second, "a", "b"),
		WithCrash(5*time.Second, "b"),
		WithRestart(7*time.Second, "b"),
		WithCall(8*time.Second, "custom", func() { called++ }),
	)
	if plan.Len() != 5 {
		t.Fatalf("Len = %d", plan.Len())
	}
	plan.Apply(net)

	send := func() { net.After(0, func() { net.Send("a", "b", "hi") }) }

	// Before the partition: delivered.
	send()
	net.RunFor(500 * time.Millisecond)
	if b.got != 1 {
		t.Fatalf("pre-partition: got %d", b.got)
	}
	// During the partition: dropped.
	net.RunFor(1 * time.Second) // now t=1.5s
	send()
	net.RunFor(500 * time.Millisecond)
	if b.got != 1 {
		t.Fatalf("during partition: got %d", b.got)
	}
	// After the heal: delivered again.
	net.RunFor(1500 * time.Millisecond) // now t=3.5s
	send()
	net.RunFor(500 * time.Millisecond)
	if b.got != 2 {
		t.Fatalf("after heal: got %d", b.got)
	}
	// While crashed: dropped on arrival.
	net.RunFor(1500 * time.Millisecond) // now t=5.5s
	send()
	net.RunFor(500 * time.Millisecond)
	if b.got != 2 {
		t.Fatalf("while crashed: got %d", b.got)
	}
	// After restart + the scripted call.
	net.RunFor(3 * time.Second) // now t=9s
	send()
	net.RunFor(500 * time.Millisecond)
	if b.got != 3 {
		t.Fatalf("after restart: got %d", b.got)
	}
	if called != 1 {
		t.Fatalf("scripted call fired %d times", called)
	}

	if plan.Fired() != plan.Len() {
		t.Fatalf("fired %d of %d", plan.Fired(), plan.Len())
	}
	c := reg.Counters()
	if got := c.Get("fault.injected"); got != int64(plan.Len()) {
		t.Errorf("fault.injected = %d, want %d", got, plan.Len())
	}
	for _, k := range []string{"fault.partition", "fault.heal", "fault.crash", "fault.restart", "fault.call"} {
		if c.Get(k) != 1 {
			t.Errorf("%s = %d, want 1", k, c.Get(k))
		}
	}
}

// TestDirectedPartitionAndLatency exercises the one-way knobs: a→b cut
// leaves b→a flowing, and a latency spike delays but does not drop.
func TestDirectedPartitionAndLatency(t *testing.T) {
	net, _, a, b := faultRig()
	net.PartitionOneWay("a", "b")
	net.After(0, func() {
		net.Send("a", "b", "x") // severed direction
		net.Send("b", "a", "y") // reverse still flows
	})
	net.RunFor(1 * time.Second)
	if b.got != 0 || a.got != 1 {
		t.Fatalf("one-way partition: a=%d b=%d", a.got, b.got)
	}
	net.HealOneWay("a", "b")
	if net.Partitioned("a", "b") {
		t.Fatal("still partitioned after HealOneWay")
	}

	// Latency spike: same-cluster delivery is sub-millisecond normally;
	// with a 2 s spike the message must not arrive within 1 s but must
	// arrive within 3 s.
	net.SetLinkLatency("a", "b", 2*time.Second)
	net.After(0, func() { net.Send("a", "b", "slow") })
	net.RunFor(1 * time.Second)
	if b.got != 0 {
		t.Fatalf("latency spike did not delay: b=%d", b.got)
	}
	net.RunFor(2 * time.Second)
	if b.got != 1 {
		t.Fatalf("spiked message lost: b=%d", b.got)
	}
	net.SetLinkLatency("a", "b", 0)

	// Directed loss at rate 1.0 drops everything a→b.
	net.SetLossOneWay("a", "b", 1.0)
	net.After(0, func() { net.Send("a", "b", "gone") })
	net.RunFor(1 * time.Second)
	if b.got != 1 {
		t.Fatalf("directed loss leaked: b=%d", b.got)
	}
	net.SetLossOneWay("a", "b", 0)
}

func TestOutageWindows(t *testing.T) {
	p := NewFaultPlan(
		// Crash-restart loop on one node: two windows.
		WithCrash(10*time.Second, "px"),
		WithRestart(12*time.Second, "px"),
		WithCrash(15*time.Second, "px"),
		WithRestart(17*time.Second, "px"),
		// Link partition, endpoints given in opposite orders.
		WithPartition(8*time.Second, "b", "a"),
		WithHeal(30*time.Second, "a", "b"),
		// Group partition healed as a group.
		WithPartitionGroup(5*time.Second, []NodeID{"e1", "e2"}, []NodeID{"w1"}),
		WithHealGroup(25*time.Second, []NodeID{"e2", "e1"}, []NodeID{"w1"}),
		// A scripted call is instantaneous, whatever its label.
		WithCall(6*time.Second, "obs0-crash", func() {}),
		WithCall(35*time.Second, "obs0-restart", func() {}),
		// Unpaired crash stays open.
		WithCrash(40*time.Second, "lost"),
		WithCall(41*time.Second, "checkpoint", func() {}),
	)
	ws := p.OutageWindows()
	if len(ws) != 5 {
		t.Fatalf("windows = %d: %+v", len(ws), ws)
	}
	type want struct {
		key        string
		start, end time.Duration
		closed     bool
	}
	wants := []want{
		{"e1,e2~w1", 5 * time.Second, 25 * time.Second, true},
		{"a~b", 8 * time.Second, 30 * time.Second, true},
		{"px", 10 * time.Second, 12 * time.Second, true},
		{"px", 15 * time.Second, 17 * time.Second, true},
		{"lost", 40 * time.Second, 40 * time.Second, false},
	}
	for i, w := range wants {
		g := ws[i]
		if g.Key != w.key || g.Start != w.start || g.End != w.end || g.Closed != w.closed {
			t.Errorf("window[%d] = %+v, want %+v", i, g, w)
		}
	}
}
