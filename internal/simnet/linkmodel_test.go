package simnet

import (
	"reflect"
	"testing"
	"time"
)

const ms = time.Millisecond

// arrival is one delivered message: which send it was and when it landed
// (offset from the start of the run).
type arrival struct {
	Msg int
	At  time.Duration
}

// linkRig is three same-cluster nodes on a jitter-free 1 ms network whose
// handlers record every arrival in order.
func linkRig() (*Network, *[]arrival) {
	net := New(LatencyModel{SameCluster: ms}, 1)
	start := net.Now()
	var got []arrival
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
		got = append(got, arrival{msg.(int), ctx.Now().Sub(start)})
	})
	p := Placement{Region: "r", Cluster: "c"}
	for _, id := range []NodeID{"a", "b", "c"} {
		net.AddNode(id, p, h)
	}
	return net, &got
}

// TestLinkModel drives the per-link rules — cut, loss, extra latency, FIFO —
// through a FaultPlan and checks each message's fate and arrival instant.
// Send i carries the int i as its message.
func TestLinkModel(t *testing.T) {
	type send struct {
		at       time.Duration
		from, to NodeID
	}
	cases := []struct {
		name  string
		plan  []PlanOption
		sends []send
		want  []arrival
	}{
		{
			name: "loss is one-way and a zero rate clears it",
			plan: []PlanOption{WithLoss(0, "a", "b", 1), WithLoss(10*ms, "a", "b", 0)},
			sends: []send{
				{1 * ms, "a", "b"}, // lost
				{2 * ms, "b", "a"}, // reverse direction unaffected
				{11 * ms, "a", "b"},
			},
			want: []arrival{{1, 3 * ms}, {2, 12 * ms}},
		},
		{
			name: "a message sent in a spike is not overtaken after the clear",
			plan: []PlanOption{WithLatencySpike(0, "a", "b", 50*ms), WithLatencyClear(10*ms, "a", "b")},
			sends: []send{
				{5 * ms, "a", "b"},  // 5 + 1 + 50
				{11 * ms, "a", "b"}, // would land at 12: held behind the first
				{11 * ms, "a", "c"}, // another link is not held
				{60 * ms, "a", "b"},
			},
			want: []arrival{{2, 12 * ms}, {0, 56 * ms}, {1, 56 * ms}, {3, 61 * ms}},
		},
		{
			name: "a two-way cut is not healed one way",
			plan: []PlanOption{
				WithPartition(0, "a", "b"),
				WithHealOneWay(10*ms, "a", "b"), WithHealOneWay(10*ms, "b", "a"),
				WithHeal(20*ms, "b", "a"),
			},
			sends: []send{
				{1 * ms, "a", "b"}, {1 * ms, "b", "a"},
				{11 * ms, "a", "b"}, {11 * ms, "b", "a"},
				{21 * ms, "a", "b"}, {21 * ms, "b", "a"},
			},
			want: []arrival{{4, 22 * ms}, {5, 22 * ms}},
		},
		{
			name: "a one-way cut is not healed two ways",
			plan: []PlanOption{
				WithPartitionOneWay(0, "a", "b"),
				WithHeal(10*ms, "a", "b"),
				WithHealOneWay(20*ms, "a", "b"),
			},
			sends: []send{
				{1 * ms, "a", "b"}, {1 * ms, "b", "a"},
				{11 * ms, "a", "b"},
				{21 * ms, "a", "b"},
			},
			want: []arrival{{1, 2 * ms}, {3, 22 * ms}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, got := linkRig()
			NewFaultPlan(tc.plan...).Apply(net)
			for i, s := range tc.sends {
				i, s := i, s
				net.After(s.at, func() { net.Send(s.from, s.to, i) })
			}
			net.Run()
			if !reflect.DeepEqual(*got, tc.want) {
				t.Errorf("arrivals = %v, want %v", *got, tc.want)
			}
			if dropped := uint64(len(tc.sends) - len(tc.want)); net.Dropped != dropped {
				t.Errorf("Dropped = %d, want %d", net.Dropped, dropped)
			}
		})
	}
}

// TestLinkBytesPerDirection: payload bytes are counted on the directed link
// they crossed, whether sent singly or as one copy of a wave.
func TestLinkBytesPerDirection(t *testing.T) {
	net, _ := linkRig()
	net.SendSized("a", "b", 0, 1000)
	net.SendSized("b", "a", 1, 300)
	net.Broadcast("a", []NodeID{"b", "c"}, 2, 200)
	net.Send("c", "a", 3) // a control message carries no payload
	net.Run()
	for _, w := range []struct {
		from, to NodeID
		bytes    uint64
	}{{"a", "b", 1200}, {"b", "a", 300}, {"a", "c", 200}, {"c", "a", 0}, {"b", "c", 0}} {
		if got := net.LinkBytes(w.from, w.to); got != w.bytes {
			t.Errorf("LinkBytes(%s→%s) = %d, want %d", w.from, w.to, got, w.bytes)
		}
	}
	if net.BytesSent != 1700 {
		t.Errorf("BytesSent = %d, want 1700", net.BytesSent)
	}
}

// TestSendAndBroadcastAgreeAtSizeZero: with nothing to serialize, a send and
// a one-recipient wave are the same message — same jitter draw, same instant.
func TestSendAndBroadcastAgreeAtSizeZero(t *testing.T) {
	arrive := func(wave bool) time.Duration {
		net := New(DefaultLatency(), 7)
		start := net.Now()
		var at time.Duration
		p := Placement{Region: "r", Cluster: "c"}
		net.AddNode("a", p, HandlerFunc(func(*Context, NodeID, Message) {}))
		net.AddNode("b", p, HandlerFunc(func(ctx *Context, _ NodeID, _ Message) { at = ctx.Now().Sub(start) }))
		if wave {
			net.Broadcast("a", []NodeID{"b"}, "m", 0)
		} else {
			net.Send("a", "b", "m")
		}
		net.Run()
		return at
	}
	if s, w := arrive(false), arrive(true); s == 0 || s != w {
		t.Errorf("Send arrived at %v, one-recipient Broadcast at %v", s, w)
	}
}
