package simnet

import (
	"testing"
	"time"
)

type recorder struct {
	got []Message
	fn  func(ctx *Context, from NodeID, msg Message)
}

func (r *recorder) HandleMessage(ctx *Context, from NodeID, msg Message) {
	r.got = append(r.got, msg)
	if r.fn != nil {
		r.fn(ctx, from, msg)
	}
}

func twoNodeNet() (*Network, *recorder, *recorder) {
	net := New(DefaultLatency(), 1)
	ra, rb := &recorder{}, &recorder{}
	net.AddNode("a", Placement{Region: "us", Cluster: "c1"}, ra)
	net.AddNode("b", Placement{Region: "us", Cluster: "c1"}, rb)
	return net, ra, rb
}

func TestSendDelivers(t *testing.T) {
	net, _, rb := twoNodeNet()
	net.Send("a", "b", "hello")
	net.Run()
	if len(rb.got) != 1 || rb.got[0] != "hello" {
		t.Fatalf("b got %v", rb.got)
	}
	if net.Delivered != 1 {
		t.Errorf("Delivered = %d", net.Delivered)
	}
}

func TestLatencyOrdering(t *testing.T) {
	// Cross-region messages take longer than same-cluster ones.
	net := New(LatencyModel{SameCluster: time.Millisecond, SameRegion: 5 * time.Millisecond,
		CrossRegion: 100 * time.Millisecond}, 1)
	var order []string
	mk := func(name string) Handler {
		return HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
			order = append(order, name)
		})
	}
	net.AddNode("src", Placement{"us", "c1"}, mk("src"))
	net.AddNode("near", Placement{"us", "c1"}, mk("near"))
	net.AddNode("mid", Placement{"us", "c2"}, mk("mid"))
	net.AddNode("far", Placement{"eu", "c9"}, mk("far"))
	net.Send("src", "far", 1)
	net.Send("src", "mid", 1)
	net.Send("src", "near", 1)
	net.Run()
	if len(order) != 3 || order[0] != "near" || order[1] != "mid" || order[2] != "far" {
		t.Fatalf("delivery order = %v", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Time {
		net := New(DefaultLatency(), 42)
		var times []time.Time
		h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
			times = append(times, ctx.Now())
		})
		net.AddNode("a", Placement{"us", "c1"}, h)
		net.AddNode("b", Placement{"eu", "c2"}, h)
		for i := 0; i < 50; i++ {
			net.Send("a", "b", i)
			net.Send("b", "a", i)
		}
		net.Run()
		return times
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("different event counts: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if !t1[i].Equal(t2[i]) {
			t.Fatalf("event %d at %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestTimer(t *testing.T) {
	net := New(DefaultLatency(), 1)
	var fired time.Time
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
		if from != "a" {
			t.Errorf("timer from = %v, want self", from)
		}
		fired = ctx.Now()
	})
	net.AddNode("a", Placement{"us", "c1"}, h)
	start := net.Now()
	net.SetTimer("a", 3*time.Second, "tick")
	net.Run()
	if fired.Sub(start) != 3*time.Second {
		t.Errorf("timer fired after %v, want 3s", fired.Sub(start))
	}
}

func TestFailDropsMessages(t *testing.T) {
	net, _, rb := twoNodeNet()
	net.Fail("b")
	net.Send("a", "b", "lost")
	net.Run()
	if len(rb.got) != 0 {
		t.Fatalf("down node received %v", rb.got)
	}
	if net.Dropped == 0 {
		t.Error("expected a drop to be counted")
	}
	net.Recover("b")
	net.Send("a", "b", "ok")
	net.Run()
	if len(rb.got) != 2 || rb.got[0] != (Restarted{}) || rb.got[1] != "ok" {
		t.Fatalf("recovered node got %v, want Restarted then ok", rb.got)
	}
}

func TestDownSenderDrops(t *testing.T) {
	net, _, rb := twoNodeNet()
	net.Fail("a")
	net.Send("a", "b", "x")
	net.Run()
	if len(rb.got) != 0 {
		t.Fatal("message from down sender delivered")
	}
}

func TestInFlightToCrashedNodeDropped(t *testing.T) {
	net, _, rb := twoNodeNet()
	net.Send("a", "b", "x") // in flight
	net.Fail("b")           // crashes before delivery
	net.Run()
	if len(rb.got) != 0 {
		t.Fatalf("crashed node received in-flight message: %v", rb.got)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net, _, rb := twoNodeNet()
	net.Partition("a", "b")
	net.Send("a", "b", "x")
	net.Run()
	if len(rb.got) != 0 {
		t.Fatal("partitioned message delivered")
	}
	net.Heal("a", "b")
	net.Send("a", "b", "y")
	net.Run()
	if len(rb.got) != 1 {
		t.Fatal("healed partition did not deliver")
	}
}

func TestLossRate(t *testing.T) {
	net, _, rb := twoNodeNet()
	net.SetLoss("a", "b", 1.0)
	for i := 0; i < 10; i++ {
		net.Send("a", "b", i)
	}
	net.Run()
	if len(rb.got) != 0 {
		t.Fatalf("lossy link delivered %v", rb.got)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	net := New(LatencyModel{SameCluster: 0}, 1)
	var arrival time.Time
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) { arrival = ctx.Now() })
	net.AddNode("a", Placement{"us", "c1"}, &recorder{})
	net.AddNode("b", Placement{"us", "c1"}, h)
	net.SetBandwidth("a", 1e6, 1e6) // 1 MB/s
	net.SetBandwidth("b", 1e6, 1e6)
	start := net.Now()
	net.SendSized("a", "b", "blob", 1_000_000) // 1 MB -> 1s up + 1s down
	net.Run()
	got := arrival.Sub(start)
	if got < 1900*time.Millisecond || got > 2100*time.Millisecond {
		t.Errorf("1MB over 1MB/s links took %v, want ~2s", got)
	}
}

func TestUplinkSharing(t *testing.T) {
	// Two large sends from the same node must serialize on its uplink.
	net := New(LatencyModel{SameCluster: 0}, 1)
	var arrivals []time.Time
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
		arrivals = append(arrivals, ctx.Now())
	})
	net.AddNode("a", Placement{"us", "c1"}, &recorder{})
	net.AddNode("b", Placement{"us", "c1"}, h)
	net.AddNode("c", Placement{"us", "c1"}, h)
	net.SetBandwidth("a", 1e6, 1e6)
	start := net.Now()
	net.SendSized("a", "b", "x", 1_000_000)
	net.SendSized("a", "c", "y", 1_000_000)
	net.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// Second transfer departs only after the first finishes serializing.
	if arrivals[1].Sub(start) < 2*time.Second {
		t.Errorf("second transfer arrived at %v; uplink not shared", arrivals[1].Sub(start))
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	net, _, _ := twoNodeNet()
	start := net.Now()
	net.RunFor(time.Minute)
	if net.Now().Sub(start) != time.Minute {
		t.Errorf("clock advanced %v, want 1m", net.Now().Sub(start))
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	net, _, rb := twoNodeNet()
	net.SetTimer("b", time.Hour, "later")
	net.Send("a", "b", "soon")
	net.RunFor(time.Minute)
	if len(rb.got) != 1 {
		t.Fatalf("got %v, want just the near message", rb.got)
	}
	if net.QueueLen() != 1 {
		t.Fatalf("queue len = %d, want 1", net.QueueLen())
	}
	net.Run()
	if len(rb.got) != 2 {
		t.Fatal("later event never delivered")
	}
}

func TestAfterCallback(t *testing.T) {
	net, _, _ := twoNodeNet()
	fired := false
	net.After(5*time.Second, func() { fired = true })
	net.RunFor(4 * time.Second)
	if fired {
		t.Fatal("callback fired early")
	}
	net.RunFor(2 * time.Second)
	if !fired {
		t.Fatal("callback never fired")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	net, _, _ := twoNodeNet()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.AddNode("a", Placement{}, &recorder{})
}

func TestSendToUnknownPanics(t *testing.T) {
	net, _, _ := twoNodeNet()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Send("a", "nope", 1)
}

func TestFIFOAtSameInstant(t *testing.T) {
	// Events scheduled for the same instant are delivered in send order.
	net := New(LatencyModel{SameCluster: time.Millisecond, Jitter: 0}, 1)
	var order []int
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
		order = append(order, msg.(int))
	})
	net.AddNode("a", Placement{"us", "c1"}, &recorder{})
	net.AddNode("b", Placement{"us", "c1"}, h)
	for i := 0; i < 20; i++ {
		net.Send("a", "b", i)
	}
	net.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}
