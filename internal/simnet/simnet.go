// Package simnet is a deterministic discrete-event network simulator.
//
// The paper's distribution stack spans multiple continents: a Zeus ensemble
// with a leader and cross-region followers, per-cluster observers, and a
// proxy on every production server. simnet stands in for that physical
// substrate. Nodes are event-driven state machines; messages are delivered
// in virtual-time order with latencies derived from the placement of the
// two endpoints (same cluster, same region, cross region) and transfer
// times derived from message size and per-node link bandwidth. Failures are
// the norm at this scale, so nodes can crash, restart, and be partitioned.
//
// The simulation is single-threaded and fully deterministic: given the same
// seed and the same sequence of API calls, every run delivers every message
// at the same virtual instant.
//
// The core is sized for fleets, not testbeds (DESIGN.md §14): events come
// from a freelist and are scheduled on one 4-ary heap keyed inline by
// (at, seq), and node ids are interned into dense int32 indexes, so a
// node's state is one slice element and link state lives in compact-key
// maps.
package simnet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"configerator/internal/intern"
	"configerator/internal/obs"
	"configerator/internal/stats"
	"configerator/internal/vclock"
)

// NodeID identifies a simulated process.
type NodeID string

// Message is an arbitrary payload delivered to a node's handler.
type Message interface{}

// Handler is implemented by every simulated process. HandleMessage is
// invoked for remote messages and for self-scheduled timers (from == the
// node itself). The Context is only valid for the duration of the call.
type Handler interface {
	HandleMessage(ctx *Context, from NodeID, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx *Context, from NodeID, msg Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(ctx *Context, from NodeID, msg Message) { f(ctx, from, msg) }

// Placement locates a node in the fleet topology. Latency between two nodes
// is a function of how much of the placement they share.
type Placement struct {
	Region  string
	Cluster string
}

// LatencyModel computes one-way network latency between two placements.
type LatencyModel struct {
	SameCluster time.Duration // e.g. intra-cluster hop
	SameRegion  time.Duration // cluster-to-cluster within a region
	CrossRegion time.Duration // intercontinental hop
	Jitter      float64       // fractional uniform jitter, e.g. 0.2
	// SerializePerKB is the CPU cost of encoding + decoding one KB of
	// payload (added to a sized message's delivery latency, on top of link
	// occupancy). It is what makes shipping a full config cost measurably
	// more time than shipping a small delta.
	SerializePerKB time.Duration
}

// DefaultLatency approximates the data-center environment described in the
// paper: sub-millisecond in-cluster hops, a few milliseconds within a
// region, and ~75 ms between continents.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		SameCluster:    500 * time.Microsecond,
		SameRegion:     2 * time.Millisecond,
		CrossRegion:    75 * time.Millisecond,
		Jitter:         0.2,
		SerializePerKB: time.Microsecond,
	}
}

// Distance classes: how much of their placement two endpoints share.
const (
	sameCluster = iota
	sameRegion
	crossRegion
)

// classBytesCounter names the per-distance-class obs byte counter.
var classBytesCounter = [...]string{"net.bytes.same_cluster", "net.bytes.same_region", "net.bytes.cross_region"}

// base classifies the a→b link and reports its one-way latency before jitter.
func (m LatencyModel) base(a, b Placement) (time.Duration, int) {
	switch {
	case a.Region == b.Region && a.Cluster == b.Cluster:
		return m.SameCluster, sameCluster
	case a.Region == b.Region:
		return m.SameRegion, sameRegion
	}
	return m.CrossRegion, crossRegion
}

// hop classifies the a→b link and draws its one-way latency in nanoseconds.
func (m LatencyModel) hop(a, b Placement, rng *stats.RNG) (lat int64, class int) {
	base, class := m.base(a, b)
	if m.Jitter > 0 {
		base += time.Duration(float64(base) * m.Jitter * rng.Float64())
	}
	return int64(base), class
}

// node is the per-node state. The table is a dense slice indexed by the
// int32 handed out at AddNode. Bandwidth modeling lives here too: a
// transfer occupies the sender's uplink and the receiver's downlink for
// size/bandwidth seconds.
type node struct {
	id         NodeID
	handler    Handler
	placement  Placement
	upBps      float64
	downBps    float64
	upFreeAt   int64 // ns since base
	downFreeAt int64
	bytesOut   uint64
	lease      *Lease // the node's keep-alive, if it holds one
	wakes      uint64 // quiet stretches ended of leases pinging this node
	down       bool
}

const (
	evDeliver uint8 = iota
	evTimer
	evCall // msg is the func() to run
	evTick // msg is the *Lease; from is the lease generation it was queued under
)

// event is one scheduled delivery, timer, callback or keep-alive tick; its
// instant is the queue entry's key. Events are pooled in a freelist
// (Network.free) linked through next; born is the virtual instant (ns since
// base) it was scheduled.
type event struct {
	born int64
	next *event
	msg  Message
	from int32
	to   int32
	kind uint8
}

// linkKey packs a directed link into one map key — link state becomes a
// compact-key map op instead of hashing two strings.
func linkKey(from, to int32) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// link is what every delivery on a directed link reads and writes. It is
// stored by value and kept to 16 bytes: a fleet has one per link in use.
type link struct {
	// lastArrival enforces FIFO delivery per directed link (TCP semantics):
	// latency jitter never reorders two messages between the same
	// endpoints. Protocols like Zeus's commit stream rely on this.
	lastArrival int64 // ns since base
	bytes       uint64
}

// linkFault is the injected fault state of one directed link. A record
// exists only while some fault holds, so a healthy network has none. The
// two-way calls (Partition, SetLoss) write their own fields on both
// directions: Heal does not lift a PartitionOneWay, nor HealOneWay a
// Partition, and likewise for loss.
type linkFault struct {
	cut, cutOneWay   bool
	loss, lossOneWay float64
	extra            time.Duration // congestion spike on top of the placement latency
}

// Network is the simulator. It owns the virtual clock; it satisfies
// vclock.Clock, so components that need the current time take the Network.
type Network struct {
	rng     *stats.RNG
	latency LatencyModel
	base    time.Time // event times are int64 ns after this instant
	// now is the clock, as ns after base. Only the loop (Step, RunUntil)
	// moves it; it is atomic because Now is read from any goroutine (a
	// proxy read stamps its staleness off the loop).
	now atomic.Int64

	index map[NodeID]int32
	nodes []node

	queue eventQueue
	free  *event // event freelist: steady state allocates zero events
	seq   uint64
	sctx  Context // scratch Context reused across deliveries

	links  map[uint64]link
	faults map[uint64]linkFault

	// Keep-alive leases (lease.go): every lease in registration order, the
	// instant each quiet stretch's last stand-in ping reached its peer, and
	// the Wake queue reader goroutines feed.
	leases      []*Lease
	heard       map[uint64]int64
	wakeMu      sync.Mutex
	wakeQ       []*Lease
	wakePending atomic.Bool

	// stepping is set while an event runs; born is that event's born.
	stepping bool
	born     int64

	// obs, when set, receives per-message byte counters and a payload-size
	// histogram (see SetObs).
	obs *obs.Registry

	// Stats observed by tests and benches.
	Delivered uint64
	Dropped   uint64
	BytesSent uint64
	// Events counts processed events of every kind (deliveries, drops,
	// callbacks) — the denominator for events/sec and allocs/event.
	Events uint64
}

// DefaultBandwidth is the per-node NIC bandwidth assumed when none is set
// (10 Gbit/s, typical for the data-center servers in the paper's era).
const DefaultBandwidth = 1.25e9 // bytes/sec

// New returns an empty network with the given latency model and seed.
func New(latency LatencyModel, seed uint64) *Network {
	n := &Network{
		rng:     stats.NewRNG(seed),
		latency: latency,
		base:    vclock.Epoch,
		index:   make(map[NodeID]int32),
		links:   make(map[uint64]link),
		faults:  make(map[uint64]linkFault),
		heard:   make(map[uint64]int64),
	}
	n.sctx.net = n
	return n
}

func (n *Network) nowNS() int64 { return n.now.Load() }

// SetObs attaches an observability registry: every sized send then feeds
// the "net.bytes" counter, a per-distance-class counter
// ("net.bytes.same_cluster" / "net.bytes.same_region" /
// "net.bytes.cross_region"), and the "net.msg.bytes" payload-size
// histogram (recorded on the 1 byte = 1 ns convention). Broadcast waves
// batch the counter updates and record one histogram sample per wave.
func (n *Network) SetObs(r *obs.Registry) { n.obs = r }

// LinkBytes reports payload bytes sent on the directed link from→to.
func (n *Network) LinkBytes(from, to NodeID) uint64 {
	fi, ok1 := n.index[from]
	ti, ok2 := n.index[to]
	if !ok1 || !ok2 {
		return 0
	}
	return n.links[linkKey(fi, ti)].bytes
}

// NodeBytesOut reports total payload bytes the node has sent.
func (n *Network) NodeBytesOut(id NodeID) uint64 { return n.nodes[n.mustIdx(id)].bytesOut }

// Now reports the current virtual time. Safe for concurrent use.
func (n *Network) Now() time.Time { return n.base.Add(time.Duration(n.nowNS())) }

// RNG exposes the network's deterministic random stream.
func (n *Network) RNG() *stats.RNG { return n.rng }

// AddNode registers a simulated process. It panics if the id is taken.
// The id and placement strings are interned: every copy of a node id in
// link maps and messages shares one backing string fleet-wide.
func (n *Network) AddNode(id NodeID, p Placement, h Handler) {
	if _, ok := n.index[id]; ok {
		panic(fmt.Sprintf("simnet: duplicate node %q", id))
	}
	id = NodeID(intern.Path(string(id)))
	p.Region = intern.Path(p.Region)
	p.Cluster = intern.Path(p.Cluster)
	n.index[id] = int32(len(n.nodes))
	n.nodes = append(n.nodes, node{id: id, handler: h, placement: p,
		upBps: DefaultBandwidth, downBps: DefaultBandwidth})
}

// SetBandwidth overrides a node's uplink/downlink bandwidth in bytes/sec.
func (n *Network) SetBandwidth(id NodeID, upBps, downBps float64) {
	nd := &n.nodes[n.mustIdx(id)]
	nd.upBps, nd.downBps = upBps, downBps
}

// Placement reports where a node lives.
func (n *Network) Placement(id NodeID) Placement { return n.nodes[n.mustIdx(id)].placement }

// NodeIDs returns all registered node ids in sorted order, so fleet setup
// code iterating the result is deterministic (map order once leaked into
// trace identity — the PR 8 bug class).
func (n *Network) NodeIDs() []NodeID {
	ids := make([]NodeID, len(n.nodes))
	for i := range n.nodes {
		ids[i] = n.nodes[i].id
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (n *Network) mustIdx(id NodeID) int32 {
	i, ok := n.index[id]
	if !ok {
		panic(fmt.Sprintf("simnet: unknown node %q", id))
	}
	return i
}

// Fail crashes a node: in-flight messages to it are dropped on arrival and
// it stops receiving timers until Recover.
func (n *Network) Fail(id NodeID) {
	i := n.mustIdx(id)
	n.touchNode(i)
	n.nodes[i].down = true
	if l := n.nodes[i].lease; l != nil {
		l.stop()
	}
}

// Restarter is implemented by handlers that need to re-arm timers after a
// crash: while a node is down its queued timers are dropped, so a periodic
// chain would otherwise die with it.
type Restarter interface {
	OnRestart(ctx *Context)
}

// Recover restarts a crashed node. Its keep-alive lease, if any, ticks on a
// grid anchored now and runs until a ping is answered. If its handler
// implements Restarter, OnRestart is invoked on the simulation loop at the
// current instant.
func (n *Network) Recover(id NodeID) {
	i := n.mustIdx(id)
	n.touchNode(i)
	nd := &n.nodes[i]
	nd.down = false
	if l := n.nodes[i].lease; l != nil {
		l.restart(true)
	}
	if r, ok := nd.handler.(Restarter); ok {
		n.After(0, func() {
			if nd := &n.nodes[i]; !nd.down {
				ctx := Context{net: n, self: nd.id, idx: i}
				r.OnRestart(&ctx)
			}
		})
	}
}

// IsDown reports whether the node is currently crashed.
func (n *Network) IsDown(id NodeID) bool { return n.nodes[n.mustIdx(id)].down }

// setFault edits the from→to fault record and drops it once nothing holds.
// The pair's quiet keep-alive leases wake first.
func (n *Network) setFault(from, to NodeID, edit func(*linkFault)) {
	fi, ti := n.mustIdx(from), n.mustIdx(to)
	n.touchLink(fi, ti)
	k := linkKey(fi, ti)
	f := n.faults[k]
	edit(&f)
	if f == (linkFault{}) {
		delete(n.faults, k)
	} else {
		n.faults[k] = f
	}
}

// Partition severs connectivity between a and b (both directions).
func (n *Network) Partition(a, b NodeID) {
	n.setFault(a, b, func(f *linkFault) { f.cut = true })
	n.setFault(b, a, func(f *linkFault) { f.cut = true })
}

// Heal restores connectivity between a and b.
func (n *Network) Heal(a, b NodeID) {
	n.setFault(a, b, func(f *linkFault) { f.cut = false })
	n.setFault(b, a, func(f *linkFault) { f.cut = false })
}

// PartitionOneWay severs only the from→to direction (asymmetric routing
// failure); replies still flow. Heal it with HealOneWay.
func (n *Network) PartitionOneWay(from, to NodeID) {
	n.setFault(from, to, func(f *linkFault) { f.cutOneWay = true })
}

// HealOneWay restores the from→to direction.
func (n *Network) HealOneWay(from, to NodeID) {
	n.setFault(from, to, func(f *linkFault) { f.cutOneWay = false })
}

// Partitioned reports whether from→to traffic is currently severed, by a
// two-way or a one-way cut.
func (n *Network) Partitioned(from, to NodeID) bool {
	f := n.faults[linkKey(n.mustIdx(from), n.mustIdx(to))]
	return f.cut || f.cutOneWay
}

// SetLoss sets the probability that a message between a and b is lost
// (0 clears it). Used to model the unreliable mobile push-notification
// channel (§5).
func (n *Network) SetLoss(a, b NodeID, p float64) {
	p = max(p, 0)
	n.setFault(a, b, func(f *linkFault) { f.loss = p })
	n.setFault(b, a, func(f *linkFault) { f.loss = p })
}

// SetLossOneWay sets the drop probability for the from→to direction only
// (0 clears it).
func (n *Network) SetLossOneWay(from, to NodeID, p float64) {
	n.setFault(from, to, func(f *linkFault) { f.lossOneWay = max(p, 0) })
}

// SetLinkLatency adds extra one-way latency on the from→to link — a
// congestion spike. Zero clears the spike.
func (n *Network) SetLinkLatency(from, to NodeID, extra time.Duration) {
	n.setFault(from, to, func(f *linkFault) { f.extra = max(extra, 0) })
}

// Send schedules delivery of a zero-size control message.
func (n *Network) Send(from, to NodeID, msg Message) { n.SendSized(from, to, msg, 0) }

// SendSized schedules delivery of a message of the given payload size.
// Large payloads occupy the sender's uplink and receiver's downlink, which
// is what makes centralized distribution of GB configs melt down and P2P
// win (§3.5).
func (n *Network) SendSized(from, to NodeID, msg Message, size int) {
	n.sendIdx(n.mustIdx(from), n.mustIdx(to), msg, size)
}

func (n *Network) sendIdx(fi, ti int32, msg Message, size int) {
	if n.nodes[fi].down {
		n.Dropped++
		return
	}
	// Encode + decode CPU cost: it delays this message after it has crossed
	// both links and occupies neither.
	class := n.transmit(fi, ti, msg, size, n.nowNS(), n.serializeNS(size))
	if n.obs != nil && size > 0 && class >= 0 {
		var copies [3]int
		copies[class] = 1
		n.account(size, copies)
	}
}

// serializeNS is the CPU cost of encoding and decoding a size-byte payload.
func (n *Network) serializeNS(size int) int64 {
	return int64(float64(n.latency.SerializePerKB) * float64(size) / 1024)
}

// transmit is the link model, and the one place a delivery is scheduled: a
// copy of msg is ready to leave fi for ti at instant ready. In order it is
// dropped by a cut or by loss (the two-way draw before the one-way), given
// the link's latency, queued behind earlier transfers on the sender's
// uplink and the receiver's downlink for size/bandwidth each, charged
// decode, held behind the link's previous arrival (FIFO), and counted. It
// returns the link's distance class, or -1 if the copy was dropped.
func (n *Network) transmit(fi, ti int32, msg Message, size int, ready, decode int64) int {
	key := linkKey(fi, ti)
	var extra int64
	if len(n.faults) > 0 {
		f := n.faults[key]
		if f.cut || f.cutOneWay ||
			(f.loss > 0 && n.rng.Bool(f.loss)) || (f.lossOneWay > 0 && n.rng.Bool(f.lossOneWay)) {
			n.Dropped++
			return -1
		}
		extra = int64(f.extra)
	}
	lat, class := n.latency.hop(n.nodes[fi].placement, n.nodes[ti].placement, n.rng)
	lat += extra
	arrive := ready + lat
	l := n.links[key]
	if size > 0 {
		se, de := &n.nodes[fi], &n.nodes[ti]
		depart := max(ready, se.upFreeAt) + int64(float64(size)/se.upBps*float64(time.Second))
		se.upFreeAt = depart
		arrive = max(depart+lat, de.downFreeAt) + int64(float64(size)/de.downBps*float64(time.Second))
		de.downFreeAt = arrive
		arrive += decode
		n.BytesSent += uint64(size)
		se.bytesOut += uint64(size)
		l.bytes += uint64(size)
	}
	arrive = max(arrive, l.lastArrival)
	l.lastArrival = arrive
	n.links[key] = l
	n.pushEvent(arrive, evDeliver, fi, ti, msg)
	return class
}

// account feeds the obs registry for one sized payload sent as copies[c]
// copies over links of distance class c: byte and message counters per copy,
// one payload-size histogram sample (on the 1 byte = 1 ns convention).
func (n *Network) account(size int, copies [3]int) {
	sent := copies[0] + copies[1] + copies[2]
	if sent == 0 {
		return
	}
	n.obs.Add("net.bytes", int64(size)*int64(sent))
	n.obs.Add("net.msgs.sized", int64(sent))
	for class, k := range copies {
		if k > 0 {
			n.obs.Add(classBytesCounter[class], int64(size)*int64(k))
		}
	}
	n.obs.Observe("net.msg.bytes", time.Duration(size))
}

// Broadcast schedules delivery of one shared payload from one sender to
// many recipients — a push wave. Unlike a loop of SendSized calls, the
// serialization CPU cost (SerializePerKB) is charged once for the wave,
// before the first copy leaves, rather than once per recipient; every
// recipient shares the same immutable msg value; and the obs counters are
// updated once per wave (with one payload-size histogram sample). Every
// copy still goes through the link model (transmit): each recipient's
// bytes occupy the sender's uplink in turn, so a wave to 100k nodes still
// serializes on the sender's NIC. Jitter draws happen in tos order, so
// callers must pass a deterministically ordered slice.
func (n *Network) Broadcast(from NodeID, tos []NodeID, msg Message, size int) {
	n.broadcastIdx(n.mustIdx(from), tos, msg, size)
}

func (n *Network) broadcastIdx(fi int32, tos []NodeID, msg Message, size int) {
	if n.nodes[fi].down {
		n.Dropped += uint64(len(tos))
		return
	}
	encoded := n.nowNS() + n.serializeNS(size)
	var copies [3]int
	for _, to := range tos {
		if class := n.transmit(fi, n.mustIdx(to), msg, size, encoded, 0); class >= 0 {
			copies[class]++
		}
	}
	if n.obs != nil && size > 0 {
		n.account(size, copies)
	}
}

// SetTimer schedules msg to be delivered to id after delay, with from == id.
func (n *Network) SetTimer(id NodeID, delay time.Duration, msg Message) {
	i := n.mustIdx(id)
	n.pushEvent(n.nowNS()+int64(delay), evTimer, i, i, msg)
}

// After schedules an arbitrary callback on the simulation loop. It is the
// hook used by the driver layers (tailer, canary, workload generators) that
// are not themselves nodes.
func (n *Network) After(delay time.Duration, fn func()) {
	n.pushEvent(n.nowNS()+int64(delay), evCall, -1, -1, fn)
}

// pushEvent takes an event from the freelist, fills it, and schedules it.
func (n *Network) pushEvent(at int64, kind uint8, from, to int32, msg Message) {
	e := n.free
	if e == nil {
		e = &event{}
	} else {
		n.free = e.next
		e.next = nil
	}
	e.born, e.kind, e.from, e.to, e.msg = n.nowNS(), kind, from, to, msg
	n.queue.push(queued{at: at, seq: n.seq, e: e})
	n.seq++
}

func (n *Network) releaseEvent(e *event) {
	*e = event{next: n.free}
	n.free = e
}

// Step processes the next event. It reports false when the queue is empty.
func (n *Network) Step() bool {
	if n.wakePending.Load() {
		n.drainWakes()
	}
	if len(n.queue) == 0 {
		return false
	}
	q := n.queue.pop()
	n.now.Store(q.at)
	e := q.e
	// Copy out and recycle before invoking the handler: anything the
	// handler schedules reuses this event without aliasing it.
	kind, from, to, msg := e.kind, e.from, e.to, e.msg
	n.stepping, n.born = true, e.born
	n.releaseEvent(e)
	n.Events++
	n.dispatch(kind, from, to, msg)
	n.stepping = false
	return true
}

func (n *Network) dispatch(kind uint8, from, to int32, msg Message) {
	switch kind {
	case evCall:
		msg.(func())()
		return
	case evTick:
		l := msg.(*Lease)
		if uint32(from) != l.gen {
			return // queued before a crash or restart re-anchored the grid
		}
		from, msg = to, l.tick
	}
	dst := &n.nodes[to]
	if dst.down {
		n.Dropped++
		return
	}
	n.Delivered++
	n.sctx.self = dst.id
	n.sctx.idx = to
	dst.handler.HandleMessage(&n.sctx, n.nodes[from].id, msg)
}

// Run processes events until the queue is empty.
func (n *Network) Run() {
	for n.Step() {
	}
}

// RunFor processes events until d of virtual time has elapsed; remaining
// later events stay queued. The clock always ends exactly at start+d.
func (n *Network) RunFor(d time.Duration) {
	n.RunUntil(n.Now().Add(d))
}

// RunUntil processes events up to and including virtual time t.
func (n *Network) RunUntil(t time.Time) {
	limit := int64(t.Sub(n.base))
	for {
		if n.wakePending.Load() {
			n.drainWakes()
		}
		if len(n.queue) == 0 || n.queue[0].at > limit {
			break
		}
		n.Step()
	}
	if limit > n.nowNS() {
		n.now.Store(limit)
	}
}

// QueueLen reports the number of pending events (for tests).
func (n *Network) QueueLen() int { return len(n.queue) }

// Context is handed to handlers; it carries the node's own identity and the
// network handle for sending messages and arming timers. The Context passed
// to HandleMessage is only valid for the duration of the call — handlers
// must not retain it (the simulator reuses one Context across deliveries).
type Context struct {
	net  *Network
	self NodeID
	idx  int32
}

// MakeContext builds a Context for driver code (tailers, tests, workload
// generators) that acts on behalf of a registered node from outside a
// handler.
func MakeContext(n *Network, self NodeID) Context {
	i := n.mustIdx(self)
	return Context{net: n, self: n.nodes[i].id, idx: i}
}

// Self reports the handling node's id.
func (c *Context) Self() NodeID { return c.self }

// Now reports the current virtual time.
func (c *Context) Now() time.Time { return c.net.Now() }

// Send sends a zero-size control message from this node.
func (c *Context) Send(to NodeID, msg Message) {
	c.net.sendIdx(c.idx, c.net.mustIdx(to), msg, 0)
}

// SendSized sends a message with a payload size from this node.
func (c *Context) SendSized(to NodeID, msg Message, size int) {
	c.net.sendIdx(c.idx, c.net.mustIdx(to), msg, size)
}

// Broadcast sends one shared payload to many recipients (see
// Network.Broadcast); tos must be deterministically ordered.
func (c *Context) Broadcast(tos []NodeID, msg Message, size int) {
	c.net.broadcastIdx(c.idx, tos, msg, size)
}

// SetTimer arms a self-timer.
func (c *Context) SetTimer(delay time.Duration, msg Message) {
	c.net.pushEvent(c.net.nowNS()+int64(delay), evTimer, c.idx, c.idx, msg)
}
