// Infrastructure fault plane: a declarative, scripted schedule of
// infrastructure failures executed on the simulation clock.
//
// The paper's availability story (§4.1) is about what happens when the
// infrastructure — not the configs — breaks: observers die, links
// partition, proxies crash and restart. A FaultPlan scripts exactly those
// events ahead of time, deterministically, and mirrors every event it
// fires into the network's obs registry so an experiment can assert that
// each scripted fault actually happened ("fault.injected" plus one
// "fault.<kind>" counter per event).
package simnet

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// FaultKind names a scripted infrastructure fault. The string doubles as
// the obs counter suffix ("fault.<kind>").
type FaultKind string

// The scripted fault kinds.
const (
	FaultCrash           FaultKind = "crash"             // net.Fail(node)
	FaultRestart         FaultKind = "restart"           // net.Recover(node)
	FaultPartition       FaultKind = "partition"         // cut a↔b
	FaultHeal            FaultKind = "heal"              // restore a↔b
	FaultPartitionOneWay FaultKind = "partition_one_way" // cut a→b only
	FaultHealOneWay      FaultKind = "heal_one_way"      // restore a→b
	FaultPartitionGroup  FaultKind = "partition_group"   // cut every A↔B pair
	FaultHealGroup       FaultKind = "heal_group"        // restore every A↔B pair
	FaultLatencySpike    FaultKind = "latency_spike"     // add a→b latency
	FaultLatencyClear    FaultKind = "latency_clear"     // remove a→b latency
	FaultLoss            FaultKind = "loss"              // set a→b drop rate
	FaultCall            FaultKind = "call"              // arbitrary scripted action
)

// FaultEvent is one scripted fault: what happens, to whom, and when
// (offset from the instant the plan is applied).
type FaultEvent struct {
	At   time.Duration
	Kind FaultKind

	Node     NodeID        // crash / restart
	From, To NodeID        // link faults
	NodesA   []NodeID      // group partitions
	NodesB   []NodeID      // group partitions
	Extra    time.Duration // latency spikes
	Rate     float64       // loss
	Label    string        // call label (for logs/assertions)
	Call     func()        // call action
}

// FaultPlan is an ordered schedule of fault events. Build one with
// NewFaultPlan and the With* options, then Apply it to a network; events
// fire on the simulation loop at their offsets.
type FaultPlan struct {
	events  []FaultEvent
	fired   int
	applied bool
}

// PlanOption adds scripted events to a FaultPlan.
type PlanOption func(*FaultPlan)

// NewFaultPlan builds a plan from the given options.
func NewFaultPlan(opts ...PlanOption) *FaultPlan {
	p := &FaultPlan{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// WithEvent appends a raw event (escape hatch for custom schedules).
func WithEvent(ev FaultEvent) PlanOption {
	return func(p *FaultPlan) { p.events = append(p.events, ev) }
}

// WithCrash crashes a node at the offset.
func WithCrash(at time.Duration, node NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultCrash, Node: node})
}

// WithRestart recovers a crashed node at the offset.
func WithRestart(at time.Duration, node NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultRestart, Node: node})
}

// WithPartition cuts the a↔b link (both directions) at the offset.
func WithPartition(at time.Duration, a, b NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultPartition, From: a, To: b})
}

// WithHeal restores the a↔b link at the offset.
func WithHeal(at time.Duration, a, b NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultHeal, From: a, To: b})
}

// WithPartitionOneWay cuts only from→to at the offset.
func WithPartitionOneWay(at time.Duration, from, to NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultPartitionOneWay, From: from, To: to})
}

// WithHealOneWay restores from→to at the offset.
func WithHealOneWay(at time.Duration, from, to NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultHealOneWay, From: from, To: to})
}

// WithPartitionGroup cuts every link between a node in A and a node in B —
// a region or cluster partition scripted as ONE event (one counter tick).
func WithPartitionGroup(at time.Duration, a, b []NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultPartitionGroup, NodesA: a, NodesB: b})
}

// WithHealGroup restores every A↔B link as one event.
func WithHealGroup(at time.Duration, a, b []NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultHealGroup, NodesA: a, NodesB: b})
}

// WithLatencySpike adds extra one-way latency on from→to at the offset.
func WithLatencySpike(at time.Duration, from, to NodeID, extra time.Duration) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultLatencySpike, From: from, To: to, Extra: extra})
}

// WithLatencyClear removes the from→to latency spike at the offset.
func WithLatencyClear(at time.Duration, from, to NodeID) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultLatencyClear, From: from, To: to})
}

// WithLoss sets the from→to drop probability at the offset (0 clears).
func WithLoss(at time.Duration, from, to NodeID, rate float64) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultLoss, From: from, To: to, Rate: rate})
}

// WithCall schedules an arbitrary labeled action — the hook for faults the
// network cannot express itself, e.g. a proxy process crash-restart that
// must also drop the proxy's in-memory state.
func WithCall(at time.Duration, label string, fn func()) PlanOption {
	return WithEvent(FaultEvent{At: at, Kind: FaultCall, Label: label, Call: fn})
}

// Len reports the number of scripted events.
func (p *FaultPlan) Len() int { return len(p.events) }

// Fired reports how many scripted events have executed so far.
func (p *FaultPlan) Fired() int { return p.fired }

// Apply schedules every event on the network's simulation loop, offsets
// measured from now. Each event, when it fires, is mirrored into the
// network's obs registry: "fault.injected" plus "fault.<kind>". A plan can
// be applied only once.
func (p *FaultPlan) Apply(n *Network) {
	if p.applied {
		panic("simnet: FaultPlan applied twice")
	}
	p.applied = true
	for i := range p.events {
		ev := p.events[i]
		n.After(ev.At, func() {
			p.execute(n, ev)
			p.fired++
			if n.obs != nil {
				n.obs.Add("fault.injected", 1)
				n.obs.Add("fault."+string(ev.Kind), 1)
			}
		})
	}
}

// OutageWindow is one [Start, End) interval during which a scripted fault
// held: opened by a breaking event, closed by its matching healing event.
// An unclosed window has Closed == false and End equal to the opening
// offset (the plan never healed it).
type OutageWindow struct {
	Kind   FaultKind // the opening event's kind
	Key    string    // what broke: node, link, group, or call-label prefix
	Start  time.Duration
	End    time.Duration
	Closed bool
}

// outageKey classifies one event as window-opening or window-closing and
// derives the identity key its counterpart must share.
func outageKey(ev FaultEvent) (opens bool, closes bool, key string) {
	switch ev.Kind {
	case FaultCrash:
		return true, false, string(ev.Node)
	case FaultRestart:
		return false, true, string(ev.Node)
	case FaultPartition, FaultHeal:
		// Unordered link: normalize endpoint order.
		a, b := string(ev.From), string(ev.To)
		if a > b {
			a, b = b, a
		}
		return ev.Kind == FaultPartition, ev.Kind == FaultHeal, a + "~" + b
	case FaultPartitionOneWay, FaultHealOneWay:
		return ev.Kind == FaultPartitionOneWay, ev.Kind == FaultHealOneWay,
			string(ev.From) + ">" + string(ev.To)
	case FaultPartitionGroup, FaultHealGroup:
		return ev.Kind == FaultPartitionGroup, ev.Kind == FaultHealGroup,
			groupKey(ev.NodesA, ev.NodesB)
	case FaultLatencySpike, FaultLatencyClear:
		return ev.Kind == FaultLatencySpike, ev.Kind == FaultLatencyClear,
			string(ev.From) + ">" + string(ev.To)
	case FaultLoss:
		// rate > 0 breaks the link, rate == 0 restores it.
		return ev.Rate > 0, ev.Rate == 0, string(ev.From) + ">" + string(ev.To)
	case FaultCall:
		// Convention: scripted calls pair by the label prefix before the
		// last '-'; a suffix of "restart", "heal", "recover", or "clear"
		// closes the window the prefix opened ("proxy0-crash" opens
		// "proxy0", "proxy0-restart" closes it). Labels without '-' are
		// instantaneous and produce no window.
		i := strings.LastIndex(ev.Label, "-")
		if i < 0 {
			return false, false, ""
		}
		switch ev.Label[i+1:] {
		case "restart", "heal", "recover", "clear":
			return false, true, ev.Label[:i]
		default:
			return true, false, ev.Label[:i]
		}
	}
	return false, false, ""
}

func groupKey(a, b []NodeID) string {
	sa := make([]string, len(a))
	for i, n := range a {
		sa[i] = string(n)
	}
	sb := make([]string, len(b))
	for i, n := range b {
		sb[i] = string(n)
	}
	sort.Strings(sa)
	sort.Strings(sb)
	ka, kb := strings.Join(sa, ","), strings.Join(sb, ",")
	if ka > kb {
		ka, kb = kb, ka
	}
	return ka + "~" + kb
}

// OutageWindows derives the outage intervals the schedule implies, pairing
// each breaking event with its matching healing event (crash↔restart by
// node, partition↔heal by endpoints, group partitions by member sets,
// scripted calls by label prefix). Repeated break/heal cycles on the same
// key yield one window per cycle, in schedule order. This is the timeline
// availability experiments assert monitoring alerts against.
func (p *FaultPlan) OutageWindows() []OutageWindow {
	evs := append([]FaultEvent(nil), p.events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	var out []OutageWindow
	open := make(map[string][]int) // key -> indices into out, FIFO
	for _, ev := range evs {
		opens, closes, key := outageKey(ev)
		switch {
		case opens:
			open[key] = append(open[key], len(out))
			out = append(out, OutageWindow{
				Kind: ev.Kind, Key: key, Start: ev.At, End: ev.At,
			})
		case closes:
			if q := open[key]; len(q) > 0 {
				i := q[0]
				open[key] = q[1:]
				out[i].End = ev.At
				out[i].Closed = true
			}
		}
	}
	return out
}

func (p *FaultPlan) execute(n *Network, ev FaultEvent) {
	switch ev.Kind {
	case FaultCrash:
		n.Fail(ev.Node)
	case FaultRestart:
		n.Recover(ev.Node)
	case FaultPartition:
		n.Partition(ev.From, ev.To)
	case FaultHeal:
		n.Heal(ev.From, ev.To)
	case FaultPartitionOneWay:
		n.PartitionOneWay(ev.From, ev.To)
	case FaultHealOneWay:
		n.HealOneWay(ev.From, ev.To)
	case FaultPartitionGroup:
		for _, a := range ev.NodesA {
			for _, b := range ev.NodesB {
				n.Partition(a, b)
			}
		}
	case FaultHealGroup:
		for _, a := range ev.NodesA {
			for _, b := range ev.NodesB {
				n.Heal(a, b)
			}
		}
	case FaultLatencySpike:
		n.SetLinkLatency(ev.From, ev.To, ev.Extra)
	case FaultLatencyClear:
		n.SetLinkLatency(ev.From, ev.To, 0)
	case FaultLoss:
		n.SetLossOneWay(ev.From, ev.To, ev.Rate)
	case FaultCall:
		ev.Call()
	default:
		panic(fmt.Sprintf("simnet: unknown fault kind %q", ev.Kind))
	}
}
