package simnet

import (
	"reflect"
	"testing"
	"time"
)

type leaseTick struct{}

// leaseHolder settles on every tick: its chain runs exactly while a fault
// holds on its pair. It records each tick's instant and whether the link
// to its peer was cut when the tick ran.
type leaseHolder struct {
	lease *Lease
	start time.Time
	ticks []time.Duration
	cut   []bool
	woken []int
}

func (h *leaseHolder) HandleMessage(ctx *Context, from NodeID, msg Message) {
	if _, ok := msg.(leaseTick); ok {
		h.lease.Renew(true)
		h.ticks = append(h.ticks, ctx.Now().Sub(h.start))
		h.cut = append(h.cut, ctx.net.Partitioned("a", "b"))
	}
}

func (h *leaseHolder) OnWake(peer NodeID, answered int) { h.woken = append(h.woken, answered) }

// newLeaseNet: node a holds a lease on a 2 s grid from 0, pinging b.
func newLeaseNet(t *testing.T) (*Network, *leaseHolder, time.Time) {
	t.Helper()
	n := New(DefaultLatency(), 1)
	h := &leaseHolder{start: n.Now()}
	p := Placement{Region: "r", Cluster: "c"}
	n.AddNode("a", p, h)
	n.AddNode("b", p, HandlerFunc(func(*Context, NodeID, Message) {}))
	h.lease = n.NewLease("a", 2*time.Second, leaseTick{}, "b")
	return n, h, n.Now()
}

func secs(ss ...float64) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = time.Duration(s * float64(time.Second))
	}
	return out
}

// TestLeaseRunsOnlyWhileAFaultHolds: a quiet lease queues nothing; a fault
// on the pair queues the next grid instant's tick, the chain runs while the
// fault holds and stands down at the first tick after it clears. The holder
// hears how many grid instants were stood in for.
func TestLeaseRunsOnlyWhileAFaultHolds(t *testing.T) {
	n, h, _ := newLeaseNet(t)
	n.RunFor(61300 * time.Millisecond)
	if n.Events != 0 {
		t.Fatalf("quiet lease ran %d events", n.Events)
	}
	n.Partition("a", "b")
	n.RunFor(4 * time.Second) // t = 65.3
	n.Heal("a", "b")
	n.RunFor(time.Minute)
	if got, want := h.ticks, secs(62, 64, 66); !reflect.DeepEqual(got, want) {
		t.Errorf("ticks at %v, want %v (the 66 s one stands down)", got, want)
	}
	if !reflect.DeepEqual(h.woken, []int{30}) {
		t.Errorf("woken with %v stand-ins, want [30] (grid instants 2 s … 60 s)", h.woken)
	}
	if n.Events != 3 {
		t.Errorf("%d events, want 3 ticks", n.Events)
	}
}

// TestLeaseTickOrderOnAGridInstant: a fault call landing exactly on a grid
// instant comes after that instant's tick when it is made from outside the
// loop or from an event scheduled after the tick would have been, and
// before it when made from an event scheduled earlier.
func TestLeaseTickOrderOnAGridInstant(t *testing.T) {
	// From outside the loop: the tick ran first, on an uncut link.
	n, h, _ := newLeaseNet(t)
	n.RunFor(70 * time.Second)
	n.Partition("a", "b")
	if got := h.cut; !reflect.DeepEqual(got, []bool{false}) { // the 72 s tick has not run
		t.Errorf("cut from outside the loop at a grid instant: ticks saw cut=%v, want the tick first", got)
	}

	// From an event scheduled long before: the cut lands first.
	n, h, _ = newLeaseNet(t)
	n.After(70*time.Second, func() { n.Partition("a", "b") })
	n.RunFor(71 * time.Second)
	if got := h.cut; !reflect.DeepEqual(got, []bool{true}) {
		t.Errorf("early-scheduled cut at a grid instant: ticks saw cut=%v, want the cut first", got)
	}

	// From an event scheduled less than a period before: the tick first.
	n, h, _ = newLeaseNet(t)
	n.After(69500*time.Millisecond, func() {
		n.After(500*time.Millisecond, func() { n.Partition("a", "b") })
	})
	n.RunFor(71 * time.Second)
	if got := h.cut; !reflect.DeepEqual(got, []bool{false}) {
		t.Errorf("late-scheduled cut at a grid instant: ticks saw cut=%v, want the tick first", got)
	}
}

// TestLeaseRestartReanchorsAndHeard: the peer hears the newest stand-in ping
// that has arrived; a crash freezes that and stales the queued tick; Recover
// re-anchors the grid at the restart instant.
func TestLeaseRestartReanchorsAndHeard(t *testing.T) {
	n, h, start := newLeaseNet(t)
	ctx := MakeContext(n, "b")
	lat := n.latency.base(n.Placement("a"), n.Placement("b"))
	heard := func(when string, want time.Duration) {
		t.Helper()
		if got, _ := ctx.Heard("a"); got.Sub(start) != want {
			t.Errorf("%s: Heard = %v, want %v", when, got.Sub(start), want)
		}
	}
	n.RunFor(20*time.Second + lat/2)
	heard("quiet, the 20 s ping in flight", 18*time.Second+lat)
	n.RunFor(1300*time.Millisecond - lat/2) // t = 21.3
	heard("quiet", 20*time.Second+lat)
	n.Fail("a")
	n.RunFor(5 * time.Second) // t = 26.3
	heard("crashed", 20*time.Second+lat)
	n.Recover("a")
	n.RunFor(10 * time.Second) // t = 36.3
	if got, want := h.ticks, secs(28.3); !reflect.DeepEqual(got, want) {
		t.Errorf("ticks at %v, want %v: one on the restart grid, which stands down", got, want)
	}
	heard("quiet again on the restart grid", 34300*time.Millisecond+lat)
}

// TestHeardGridAndLeaseWakes: Heard flags a grid answer only while the
// holder's lease is quiet towards the asker and past its first stand-in
// ping, and every end of such a stretch — a Wake, a fault call on the pair,
// a re-Point, a crash — bumps the peer's LeaseWakes once; a call on a
// running chain bumps nothing.
func TestHeardGridAndLeaseWakes(t *testing.T) {
	n, h, _ := newLeaseNet(t)
	n.AddNode("c", n.Placement("b"), HandlerFunc(func(*Context, NodeID, Message) {}))
	b, c := MakeContext(n, "b"), MakeContext(n, "c")
	check := func(when string, ctx *Context, wantGrid bool, wantWakes uint64) {
		t.Helper()
		if _, grid := ctx.Heard("a"); grid != wantGrid {
			t.Errorf("%s: Heard grid = %v, want %v", when, grid, wantGrid)
		}
		if got := ctx.LeaseWakes(); got != wantWakes {
			t.Errorf("%s: LeaseWakes = %d, want %d", when, got, wantWakes)
		}
	}
	n.RunFor(time.Second)
	check("before the first stand-in ping", &b, false, 0)
	n.RunFor(4 * time.Second) // t = 5
	check("quiet", &b, true, 0)
	h.lease.Wake()
	n.RunFor(time.Second) // t = 6: the tick at 6 stands the chain down again
	check("woken, quiet again", &b, false, 1)
	n.RunFor(3 * time.Second) // t = 9
	check("quiet after the wake", &b, true, 1)
	n.Partition("a", "b")
	n.Heal("a", "b") // the chain is running: no second bump
	check("cut and healed", &b, false, 2)
	n.RunFor(5 * time.Second) // t = 14
	check("quiet after the cut", &b, true, 2)
	h.lease.Point("c")
	check("re-pointed", &b, false, 3)
	n.RunFor(5 * time.Second) // t = 19
	check("quiet towards c", &c, true, 0)
	check("quiet towards c, asked by b", &b, false, 3)
	n.Fail("a")
	check("crashed", &c, false, 1)
	n.Recover("a")
	check("restarted", &c, false, 1)
}
