package simnet

import (
	"container/heap"
	"fmt"
	"testing"
	"time"

	"configerator/internal/stats"
)

// refQueue is the old container/heap event queue, kept here as the
// reference ordering the timer wheel must reproduce exactly.
type refQueue []*event

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return eventLess(q[i], q[j]) }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// TestWheelHeapEquivalence drives the wheel and the reference heap through
// an identical randomized push/pop schedule shaped like a 1k-node fleet
// workload — bursts of same-instant events, sub-millisecond network
// arrivals, second-scale timers that land on the L1 wheel, and hour/day
// stragglers that start on the far heap — and asserts every pop agrees on
// (at, seq). This is the determinism contract: the wheel is a drop-in
// replacement for the heap's total order.
func TestWheelHeapEquivalence(t *testing.T) {
	rng := stats.NewRNG(20150406)
	var w eventWheel
	var ref refQueue
	var now int64
	var seq uint64

	push := func(at int64) {
		if at < now {
			at = now
		}
		w.push(&event{at: at, seq: seq})
		heap.Push(&ref, &event{at: at, seq: seq})
		seq++
	}
	pop := func() {
		we := w.pop()
		re := heap.Pop(&ref).(*event)
		if we.at != re.at || we.seq != re.seq {
			t.Fatalf("pop diverged: wheel (at=%d seq=%d) vs heap (at=%d seq=%d)",
				we.at, we.seq, re.at, re.seq)
		}
		if we.at < now {
			t.Fatalf("time went backwards: %d after %d", we.at, now)
		}
		now = we.at
	}

	// Delay mixture, ns: same instant, in-slot, near (L0), seconds (L1),
	// minutes (L1), hours and days (far heap).
	delay := func() int64 {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1, 2:
			return int64(rng.Intn(1 << tickShift)) // within one slot
		case 3, 4, 5, 6:
			return int64(rng.Intn(int(time.Second))) // L0 range
		case 7, 8:
			return int64(rng.Intn(int(time.Minute))) // L1 range
		case 9:
			return int64(rng.Intn(int(time.Hour))) // deep L1
		case 10:
			return int64(time.Hour) + int64(rng.Intn(int(24*time.Hour))) // far
		default:
			return int64(24*time.Hour) + int64(rng.Intn(int(10*24*time.Hour))) // deep far
		}
	}

	for i := 0; i < 300_000; i++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			push(now + delay())
		} else {
			pop()
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if w.pop() != nil {
		t.Fatal("wheel still had events after reference heap drained")
	}
	if w.pending != 0 {
		t.Fatalf("wheel pending = %d after drain", w.pending)
	}
}

// TestWheelTimerPrecision pins exact firing instants across all three
// structures: due slot (0), L0 (sub-second), L1 cascade (seconds to
// minutes), and the far heap (beyond the ~73 min L1 horizon).
func TestWheelTimerPrecision(t *testing.T) {
	net := New(LatencyModel{}, 1)
	net.AddNode("n", Placement{Region: "r", Cluster: "c"}, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {}))
	start := net.Now()
	delays := []time.Duration{
		0, 100 * time.Microsecond, 900 * time.Millisecond,
		1500 * time.Millisecond, 70 * time.Second, 40 * time.Minute,
		90 * time.Minute, 26 * time.Hour,
	}
	fired := make(map[time.Duration]time.Time)
	for _, d := range delays {
		d := d
		net.After(d, func() { fired[d] = net.Now() })
	}
	net.Run()
	for _, d := range delays {
		at, ok := fired[d]
		if !ok {
			t.Fatalf("timer at %v never fired", d)
		}
		if want := start.Add(d); !at.Equal(want) {
			t.Errorf("timer %v fired at %v, want %v", d, at, want)
		}
	}
}

// TestFIFOAcrossWheelPromotion sends many messages down one link whose
// extra latency swings from microseconds to hours in random order, so in-
// flight arrivals for the same link live in the due heap, L0, L1, and the
// far heap simultaneously. The per-link FIFO clamp must still deliver them
// in send order.
func TestFIFOAcrossWheelPromotion(t *testing.T) {
	lat := DefaultLatency() // jitter on
	net := New(lat, 99)
	p := Placement{Region: "r", Cluster: "c"}
	var got []int
	net.AddNode("a", p, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {}))
	net.AddNode("b", p, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
		got = append(got, msg.(int))
	}))
	rng := stats.NewRNG(5)
	spikes := []time.Duration{
		0, time.Millisecond, 700 * time.Millisecond, 3 * time.Second,
		2 * time.Minute, time.Hour, 3 * time.Hour,
	}
	const msgs = 500
	for i := 0; i < msgs; i++ {
		net.SetLinkLatency("a", "b", spikes[rng.Intn(len(spikes))])
		net.Send("a", "b", i)
	}
	net.Run()
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: position %d got message %d", i, v)
		}
	}
}

// TestEventPoolReuse churns the freelist hard — every delivery recycles an
// event that an in-flight message may immediately reuse — and checks that
// payloads never alias: each received value must be exactly the one sent.
// `make race` runs this under the race detector.
func TestEventPoolReuse(t *testing.T) {
	net := New(DefaultLatency(), 3)
	p := Placement{Region: "r", Cluster: "c"}
	const rounds = 20_000
	recvA, recvB := 0, 0
	net.AddNode("a", p, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
		v := msg.(int)
		if from == "a" {
			return // timer echo
		}
		if v != recvA {
			t.Fatalf("a expected %d, got %d", recvA, v)
		}
		recvA++
		if v+1 < rounds {
			ctx.SetTimer(time.Duration(v%7)*time.Microsecond, v) // churn timers too
			ctx.Send("b", v+1)
		}
	}))
	net.AddNode("b", p, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
		v := msg.(int)
		if from == "b" {
			return // timer echo
		}
		if v != recvB+1 {
			t.Fatalf("b expected %d, got %d", recvB+1, v)
		}
		recvB = v
		ctx.Send("a", v)
	}))
	net.Send("b", "a", 0)
	net.Run()
	if recvB != rounds-1 {
		t.Fatalf("ping-pong stopped at %d", recvB)
	}
	if net.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after Run", net.QueueLen())
	}
}

// TestNodeIDsSorted is the regression for the map-order audit: fleet setup
// code iterates NodeIDs, so the order must be deterministic.
func TestNodeIDsSorted(t *testing.T) {
	net := New(DefaultLatency(), 1)
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {})
	p := Placement{Region: "r", Cluster: "c"}
	for _, id := range []NodeID{"zed", "alpha", "mid", "beta", "omega"} {
		net.AddNode(id, p, h)
	}
	got := net.NodeIDs()
	want := []NodeID{"alpha", "beta", "mid", "omega", "zed"}
	if len(got) != len(want) {
		t.Fatalf("NodeIDs len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodeIDs[%d] = %q, want %q (must be sorted)", i, got[i], want[i])
		}
	}
}

// TestSetLossClears: clearing loss with SetLoss(a, b, 0) restores delivery
// and leaves no fault record behind in either direction.
func TestSetLossClears(t *testing.T) {
	net := New(LatencyModel{SameCluster: time.Millisecond}, 1)
	p := Placement{Region: "r", Cluster: "c"}
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {})
	net.AddNode("a", p, h)
	net.AddNode("b", p, h)
	net.SetLoss("a", "b", 1.0)
	net.Send("a", "b", "x")
	if net.Dropped != 1 {
		t.Fatalf("Dropped = %d with loss 1.0, want 1", net.Dropped)
	}
	net.SetLoss("a", "b", 0)
	if len(net.faults) != 0 {
		t.Fatalf("SetLoss(0) left %d fault records", len(net.faults))
	}
	net.Send("a", "b", "y")
	net.Run()
	if net.Delivered != 1 {
		t.Fatalf("Delivered = %d after clearing loss, want 1", net.Delivered)
	}
}

// TestBroadcastSemantics checks the shared-payload wave against an
// equivalent loop of sends: every recipient gets the message, bytes are
// charged per copy, and serialization is charged once per wave (so the
// wave's first arrival beats the per-recipient encode of a send loop).
func TestBroadcastSemantics(t *testing.T) {
	lat := LatencyModel{SameCluster: time.Millisecond, SerializePerKB: time.Millisecond}
	p := Placement{Region: "r", Cluster: "c"}
	const size = 10 * 1024
	const fanout = 8

	build := func() (*Network, *[]NodeID, *map[NodeID]time.Time) {
		net := New(lat, 42)
		arrivals := make(map[NodeID]time.Time)
		tos := make([]NodeID, 0, fanout)
		net.AddNode("src", p, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {}))
		for i := 0; i < fanout; i++ {
			id := NodeID(fmt.Sprintf("dst-%d", i))
			tos = append(tos, id)
			net.AddNode(id, p, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
				arrivals[ctx.Self()] = ctx.Now()
			}))
		}
		return net, &tos, &arrivals
	}

	bnet, btos, barr := build()
	bnet.Broadcast("src", *btos, "payload", size)
	bnet.Run()
	if bnet.Delivered != fanout {
		t.Fatalf("broadcast delivered %d, want %d", bnet.Delivered, fanout)
	}
	if want := uint64(size * fanout); bnet.BytesSent != want {
		t.Fatalf("broadcast BytesSent = %d, want %d (bytes are per copy)", bnet.BytesSent, want)
	}
	if got := bnet.LinkBytes("src", (*btos)[0]); got != size {
		t.Fatalf("link bytes = %d, want %d", got, size)
	}
	if got := bnet.NodeBytesOut("src"); got != uint64(size*fanout) {
		t.Fatalf("src bytesOut = %d, want %d", got, size*fanout)
	}

	snet, stos, sarr := build()
	for _, to := range *stos {
		snet.SendSized("src", to, "payload", size)
	}
	snet.Run()

	// Same copies on the wire either way; the wave pays encode once while
	// the loop pays it per recipient, so every broadcast arrival after the
	// first must be strictly earlier than its send-loop counterpart.
	if snet.BytesSent != bnet.BytesSent {
		t.Fatalf("send loop BytesSent = %d, broadcast = %d", snet.BytesSent, bnet.BytesSent)
	}
	later := 0
	for _, id := range *btos {
		ba, sa := (*barr)[id], (*sarr)[id]
		if ba.IsZero() || sa.IsZero() {
			t.Fatalf("missing arrival for %s", id)
		}
		if ba.After(sa) {
			later++
		}
	}
	if later > 0 {
		t.Fatalf("%d broadcast arrivals were later than the per-recipient send loop", later)
	}
}

// TestBroadcastDropsRespectFaults checks the wave honors partitions, loss,
// and a down source just like SendSized.
func TestBroadcastDropsRespectFaults(t *testing.T) {
	net := New(LatencyModel{SameCluster: time.Millisecond}, 7)
	p := Placement{Region: "r", Cluster: "c"}
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {})
	net.AddNode("src", p, h)
	tos := []NodeID{"d0", "d1", "d2"}
	for _, id := range tos {
		net.AddNode(id, p, h)
	}
	net.Partition("src", "d1")
	net.SetLossOneWay("src", "d2", 1.0)
	net.Broadcast("src", tos, "m", 0)
	net.Run()
	if net.Delivered != 1 || net.Dropped != 2 {
		t.Fatalf("Delivered=%d Dropped=%d, want 1/2", net.Delivered, net.Dropped)
	}
	net.Fail("src")
	net.Broadcast("src", tos, "m", 0)
	if net.Dropped != 5 {
		t.Fatalf("down source: Dropped=%d, want 5", net.Dropped)
	}
}

// TestNetworkDeterminismLargeFanout runs the same seeded 1k-node random
// workload twice — random sized sends, broadcasts, and timers — and
// requires bit-identical delivery schedules and counters.
func TestNetworkDeterminismLargeFanout(t *testing.T) {
	run := func() (digest uint64, delivered, dropped, bytes uint64) {
		net := New(DefaultLatency(), 1234)
		const nodes = 1000
		ids := make([]NodeID, nodes)
		for i := range ids {
			ids[i] = NodeID(fmt.Sprintf("n-%03d", i))
			p := Placement{
				Region:  fmt.Sprintf("r%d", i%3),
				Cluster: fmt.Sprintf("c%d", i%10),
			}
			net.AddNode(ids[i], p, HandlerFunc(func(ctx *Context, from NodeID, msg Message) {
				// Fold every delivery instant into an order-sensitive digest.
				digest = digest*1099511628211 + uint64(ctx.Now().UnixNano())
			}))
		}
		wl := stats.NewRNG(777)
		for i := 0; i < 2000; i++ {
			switch wl.Intn(4) {
			case 0:
				net.Send(ids[wl.Intn(nodes)], ids[wl.Intn(nodes)], i)
			case 1:
				net.SendSized(ids[wl.Intn(nodes)], ids[wl.Intn(nodes)], i, 1+wl.Intn(4096))
			case 2:
				net.SetTimer(ids[wl.Intn(nodes)], time.Duration(wl.Intn(int(3*time.Second))), i)
			default:
				tos := make([]NodeID, 0, 20)
				for k := 0; k < 20; k++ {
					tos = append(tos, ids[wl.Intn(nodes)])
				}
				net.Broadcast(ids[wl.Intn(nodes)], tos, i, 512)
			}
		}
		net.Run()
		return digest, net.Delivered, net.Dropped, net.BytesSent
	}
	d1, del1, drop1, b1 := run()
	d2, del2, drop2, b2 := run()
	if d1 != d2 || del1 != del2 || drop1 != drop2 || b1 != b2 {
		t.Fatalf("same-seed runs diverged: digest %d/%d delivered %d/%d dropped %d/%d bytes %d/%d",
			d1, d2, del1, del2, drop1, drop2, b1, b2)
	}
}

// TestSendZeroAllocWarm asserts the steady-state promise directly: once
// the freelist and link maps are warm, Send+Step and SetTimer+Step
// allocate nothing.
func TestSendZeroAllocWarm(t *testing.T) {
	net := New(DefaultLatency(), 9)
	p := Placement{Region: "r", Cluster: "c"}
	h := HandlerFunc(func(ctx *Context, from NodeID, msg Message) {})
	net.AddNode("a", p, h)
	net.AddNode("b", p, h)
	msg := &struct{}{}
	for i := 0; i < 1000; i++ { // warm freelist, maps, due-heap capacity
		net.SendSized("a", "b", msg, 1024)
		net.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		net.SendSized("a", "b", msg, 1024)
		net.Step()
	}); allocs != 0 {
		t.Fatalf("warm SendSized+Step allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		net.SetTimer("a", time.Millisecond, msg)
		net.Step()
	}); allocs != 0 {
		t.Fatalf("warm SetTimer+Step allocates %.1f/op, want 0", allocs)
	}
}
