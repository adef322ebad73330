package simnet

import (
	"sync/atomic"
	"time"
)

// Keep-alive leases.
//
// A proxy watches one observer and must notice when it dies (§4.1). Pinging
// it on every tick makes a quiet fleet cost O(nodes × simulated time): on a
// canary soak nearly every event is a ping, a pong or the tick that sent
// one. A Lease holds the tick grid and the peer instead, and queues nothing
// while the pair is quiet — the holder's last ping answered, no fault on
// the node, its peer or the link between them. simnet stands in for the
// pings of a quiet stretch: every grid instant counts as a ping sent and
// answered. A fault call that touches the pair (Fail, Recover, Partition,
// PartitionOneWay, Heal, HealOneWay, SetLoss, SetLossOneWay,
// SetLinkLatency), a re-Point or a Wake ends the stretch:
//
//   - the holder's Waker hears how many stand-in pings were answered;
//   - the peer's Heard reports when the last of them arrived, and its
//     LeaseWakes count goes up by one;
//   - the holder's tick is queued at its next grid instant, and from there
//     its tick handler runs as an ordinary periodic timer, calling Renew,
//     until Renew stands the chain down again.
//
// So every decision the chain takes falls on the instant a chain that never
// stopped would have taken it. A fault call landing exactly on a grid
// instant is ordered against that instant's tick as the tick's event would
// have been: that event was queued one period earlier, so it runs after a
// call from an event scheduled before then, and before any other.
type Lease struct {
	n      *Network
	node   int32
	peer   int32 // -1: none
	tick   Message
	period int64
	anchor int64 // grid instants are anchor + k·period, k ≥ 1 (ns since base)
	state  uint8
	quiet  int64 // while quiet: the first grid instant stood in for
	hold   bool  // a tick is running ahead of a fault call on its instant
	queued atomic.Bool
}

const (
	leaseQuiet   uint8 = iota
	leaseRunning       // a tick is queued
	leaseDown          // the node crashed: nothing until Recover re-anchors the grid
)

// Waker is implemented by a lease holder that keeps state about its pings:
// OnWake runs on the simulation loop when a quiet stretch ends, with the
// peer the stand-in pings went to and how many of them were answered.
type Waker interface {
	OnWake(peer NodeID, answered int)
}

// NewLease registers id's keep-alive: a tick every period from now, pinging
// peer ("" for none). It starts quiet unless a fault already holds on the
// pair. The holder's handler receives tick at each tick it must run, and
// must call Renew there. Recover re-anchors the grid at the restart instant.
func (n *Network) NewLease(id NodeID, period time.Duration, tick Message, peer NodeID) *Lease {
	i := n.mustIdx(id)
	l := &Lease{n: n, node: i, peer: n.peerIdx(peer), tick: tick, period: int64(period)}
	n.nodes[i].lease = l
	n.leases = append(n.leases, l)
	l.restart(false)
	return l
}

func (n *Network) peerIdx(id NodeID) int32 {
	if id == "" {
		return -1
	}
	return n.mustIdx(id)
}

// Renew is the first call of the holder's tick handler. It queues the next
// tick and reports true — or, when settled (the holder's last ping was
// answered) and no fault holds on the pair, stands the chain down and
// reports false: this tick's ping and every later one are stood in for.
func (l *Lease) Renew(settled bool) bool {
	now := l.n.nowNS()
	if settled && !l.hold && !l.faulted() {
		l.state, l.quiet = leaseQuiet, now
		return false
	}
	l.arm(now + l.period)
	return true
}

// Point re-aims the keep-alive at peer ("" for none): the holder switched
// partners. A quiet stretch ends first — its stand-ins went to the old peer
// — so the next tick checks the new pair.
func (l *Lease) Point(peer NodeID) {
	if p := l.n.peerIdx(peer); p != l.peer {
		l.wake(false)
		l.peer = p
	}
}

// Wake ends a quiet stretch from any goroutine: a reader found work for the
// holder's next tick. The simulation loop acts on it before its next event.
func (l *Lease) Wake() {
	if l.queued.Swap(true) {
		return
	}
	n := l.n
	n.wakeMu.Lock()
	n.wakeQ = append(n.wakeQ, l)
	n.wakeMu.Unlock()
	n.wakePending.Store(true)
}

func (n *Network) drainWakes() {
	n.wakeMu.Lock()
	q := n.wakeQ
	n.wakeQ = nil
	n.wakePending.Store(false)
	n.wakeMu.Unlock()
	for _, l := range q {
		l.queued.Store(false)
		l.wake(false)
	}
}

// restart anchors the grid at now. The chain starts quiet unless run is set
// or a fault holds on the pair.
func (l *Lease) restart(run bool) {
	l.anchor = l.n.nowNS()
	if run || l.faulted() {
		l.arm(l.anchor + l.period)
	} else {
		l.state, l.quiet = leaseQuiet, l.anchor+l.period
	}
}

// stop is the node crashing: the chain dies with it, as its timers do.
func (l *Lease) stop() { l.state = leaseDown }

func (l *Lease) arm(at int64) {
	l.state = leaseRunning
	l.n.pushEvent(at, evTick, int32(l.n.nodes[l.node].life.Load()), l.node, l)
}

func (l *Lease) faulted() bool { return l.peer >= 0 && l.n.pairFaulted(l.node, l.peer) }

// gridAt is the grid instant at or before t (t ≥ anchor).
func (l *Lease) gridAt(t int64) int64 { return l.anchor + (t-l.anchor)/l.period*l.period }

// lat is the one-way latency of a ping to the peer, before jitter: a
// stand-in ping arrives this long after its grid instant.
func (l *Lease) lat() int64 {
	d := l.n.latency.base(l.n.nodes[l.node].placement, l.n.nodes[l.peer].placement)
	return int64(d)
}

// wake ends a quiet stretch at now. The grid instants from the stretch's
// first up to now were pings sent and answered (one still inside its round
// trip included: its jitter was never drawn). A tick due exactly now is a
// real one: with tickFirst it runs here, before the caller's change lands,
// so its ping leaves as it would have; otherwise it is queued behind it.
func (l *Lease) wake(tickFirst bool) {
	if l.state != leaseQuiet {
		return
	}
	n := l.n
	if l.peer >= 0 {
		n.nodes[l.peer].wakes++
	}
	now := n.nowNS()
	last := l.gridAt(now)
	due := last == now && now >= l.quiet
	if due {
		last -= l.period
	}
	if last >= l.quiet && l.peer >= 0 {
		n.heard[linkKey(l.node, l.peer)] = last + l.lat()
		if w, ok := n.nodes[l.node].handler.(Waker); ok {
			w.OnWake(n.nodes[l.peer].id, int((last-l.quiet)/l.period)+1)
		}
	}
	switch {
	case due && tickFirst:
		l.state, l.hold = leaseRunning, true
		nd := &n.nodes[l.node]
		n.Events++
		n.Delivered++
		ctx := Context{net: n, self: nd.id, idx: l.node}
		nd.handler.HandleMessage(&ctx, nd.id, l.tick)
		l.hold = false
	case due:
		l.arm(now)
	default:
		l.arm(last + l.period)
	}
}

// touchNode wakes the quiet leases a fault call on node i can change — its
// own and those pinging it — before the call changes anything.
func (n *Network) touchNode(i int32) {
	for _, l := range n.leases {
		if l.node == i || l.peer == i {
			l.wake(n.tickFirst(l))
		}
	}
}

// touchLink wakes the quiet leases of the pair a–b, before the link changes.
func (n *Network) touchLink(a, b int32) {
	if l := n.nodes[a].lease; l != nil && l.peer == b {
		l.wake(n.tickFirst(l))
	}
	if l := n.nodes[b].lease; l != nil && l.peer == a {
		l.wake(n.tickFirst(l))
	}
}

// tickFirst reports whether l's tick due now would run before the fault call
// being made. It would when the call comes from outside the loop (every
// event due now has run) or from an event scheduled no earlier than the
// tick would have been, one period ago.
func (n *Network) tickFirst(l *Lease) bool {
	return !n.stepping || n.born >= n.nowNS()-l.period
}

// pairFaulted reports whether a or b is down or a fault holds on the link
// between them, in either direction.
func (n *Network) pairFaulted(a, b int32) bool {
	if n.nodes[a].life.Down() || n.nodes[b].life.Down() {
		return true
	}
	if len(n.faults) == 0 {
		return false
	}
	_, ab := n.faults[linkKey(a, b)]
	_, ba := n.faults[linkKey(b, a)]
	return ab || ba
}

// Heard reports when the last keep-alive from `from` that simnet stood in
// for reached this node: the newest stand-in ping to have arrived while
// from's lease is quiet with this node as peer, else the last of its latest
// quiet stretch with this node, else the zero time. A node holding no lease
// is heard now while it is up with no fault on the pair: a node silent
// without a fault is alive.
//
// grid reports that the answer is the first case, a grid instant of a quiet
// stretch already past its first stand-in ping: until that stretch ends,
// which bumps LeaseWakes, Heard stays within one ping period of now.
func (c *Context) Heard(from NodeID) (at time.Time, grid bool) {
	n := c.net
	fi := n.mustIdx(from)
	ns, ok := n.heard[linkKey(fi, c.idx)]
	if !n.nodes[fi].life.Down() {
		switch l := n.nodes[fi].lease; {
		case l == nil && !n.pairFaulted(fi, c.idx):
			return n.Now(), false
		case l != nil && l.state == leaseQuiet && l.peer == c.idx:
			if lat, now := l.lat(), n.nowNS(); now-lat >= l.quiet {
				ns, ok, grid = l.gridAt(now-lat)+lat, true, true
			}
		}
	}
	if !ok {
		return time.Time{}, false
	}
	return n.base.Add(time.Duration(ns)), grid
}

// LeaseWakes counts the quiet stretches of leases pinging this node that
// have ended — by a fault call, a re-Point, a Wake or a crash. While it
// holds still, every answer Heard gave with grid set still holds.
func (c *Context) LeaseWakes() uint64 { return c.net.nodes[c.idx].wakes }
