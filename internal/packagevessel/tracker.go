package packagevessel

import (
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// Swarm coordination is keyed by digest, not by (package, version,
// index): the tracker counts holders per digest, so a chunk shared
// between versions has every v1 holder counted when a v2 swarm asks for
// it — rarest-first scheduling concentrates on the genuinely new bytes
// and cross-version seeding falls out for free.
//
// Fleet-scale accommodations:
//
//   - Holder sets are capped reservoir samples (holderSample entries) on
//     top of an exact count; rarity uses the count, peer selection draws
//     from the sample. A digest with thousands of holders does not cost
//     thousands of map entries per digest.
//   - Grants are batched: one msgWant returns up to Max grants, so an
//     agent coordinates a whole fetch window per round trip instead of
//     one tracker round trip per chunk (the "old swarm" behavior the
//     vessel experiment compares against).
//   - Each holder has a per-tick grant budget (refilled on a timer), so
//     ten thousand cold agents cannot all be pointed at the single seed
//     in the first wave — the flash crowd is spread over the exponential
//     capacity growth of the swarm itself.

const (
	// holderSample caps remembered holders per digest.
	holderSample = 64
	// trackerTick is the grant-budget refill interval.
	trackerTick = 500 * time.Millisecond
	// defaultHolderBudget is the default grants per holder per tick,
	// sized to roughly a 1 Gbit/s uplink's chunk capacity per tick at the
	// default 1 MiB chunk size (~59 chunks/tick, kept under it so a
	// holder's uplink never queues a full tick deep).
	defaultHolderBudget = 32
	// farBudget caps cross-region grants per requesting region per tick:
	// enough to bootstrap a region that holds nothing, small enough that a
	// region never bulk-transfers over the spine what its own swarm will
	// hold moments later.
	farBudget = 32
)

// holderRef is a sampled holder with its placement cached at announce
// time (placement is immutable in the simulation), so peer selection
// never re-resolves node ids on the hot path.
type holderRef struct {
	id simnet.NodeID
	pl simnet.Placement
}

// digestState tracks one digest's holders.
type digestState struct {
	count  int         // exact holder count (rarity)
	sample []holderRef // reservoir sample of holders (peer selection)
}

// Tracker coordinates swarms by digest rarity.
type Tracker struct {
	id  simnet.NodeID
	net *simnet.Network

	digests map[blob.Digest]*digestState
	// busy counts grants per holder in the current tick; refilled (cleared)
	// every trackerTick so one seed is never the whole first wave's target.
	busy   map[simnet.NodeID]int
	budget int
	// busyFar counts cross-region grants per requesting region this tick.
	busyFar map[string]int

	// Scratch buffers reused across assign calls (the tracker handles one
	// message at a time, so per-call allocation here is pure GC churn at
	// fleet scale).
	scratchAvoid  map[simnet.NodeID]bool
	scratchStates []*digestState

	// Assignments counts grants handed out.
	Assignments uint64
	// Wants and EmptyWants count grant requests and the subset answered
	// with zero grants (the requester backs off and retries).
	Wants      uint64
	EmptyWants uint64
}

// NewTracker creates the coordinator node.
func NewTracker(net *simnet.Network, id simnet.NodeID, p simnet.Placement) *Tracker {
	t := &Tracker{
		id: id, net: net,
		digests:      make(map[blob.Digest]*digestState),
		busy:         make(map[simnet.NodeID]int),
		budget:       defaultHolderBudget,
		busyFar:      make(map[string]int),
		scratchAvoid: make(map[simnet.NodeID]bool),
	}
	net.AddNode(id, p, t)
	net.SetTimer(id, trackerTick, msgTrackerTick{})
	return t
}

// SetHolderBudget tunes grants per holder per refill tick. Roughly
// uplink_bytes_per_tick / chunk_size; too high just queues at the
// holder's uplink, too low idles it.
func (t *Tracker) SetHolderBudget(n int) {
	if n > 0 {
		t.budget = n
	}
}

// HolderBudgetFor sizes the per-holder grant budget for a fleet of
// uplinkBps-capable holders swarming chunkSize-byte chunks: the number of
// chunks one uplink can push per tracker tick. Oversubscribing the budget
// queues chunks at holder uplinks until fetches hit their timeout and the
// grants are wasted; matching it keeps uplinks saturated but the queues
// shallow.
func HolderBudgetFor(uplinkBps float64, chunkSize int) int {
	perTick := uplinkBps * trackerTick.Seconds() / float64(chunkSize)
	if perTick < 1 {
		return 1
	}
	return int(perTick)
}

// ID is the tracker's node id.
func (t *Tracker) ID() simnet.NodeID { return t.id }

// OnRestart implements simnet.Restarter: re-arm the budget tick.
func (t *Tracker) OnRestart(ctx *simnet.Context) {
	t.busy = make(map[simnet.NodeID]int)
	t.busyFar = make(map[string]int)
	ctx.SetTimer(trackerTick, msgTrackerTick{})
}

// HandleMessage implements simnet.Handler.
func (t *Tracker) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case msgTrackerTick:
		// Refill: clear per-holder and per-region grant counts and re-arm.
		clear(t.busy)
		clear(t.busyFar)
		ctx.SetTimer(trackerTick, msgTrackerTick{})
	case msgAnnounce:
		t.addHolder(from, m.Digests)
	case msgWant:
		t.addHolder(from, m.Have)
		if len(m.Need) > 0 {
			t.assign(ctx, from, m)
		}
	}
}

func (t *Tracker) addHolder(holder simnet.NodeID, digests []blob.Digest) {
	if len(digests) == 0 {
		return
	}
	ref := holderRef{id: holder, pl: t.net.Placement(holder)}
	for _, d := range digests {
		s := t.digests[d]
		if s == nil {
			s = &digestState{}
			t.digests[d] = s
		}
		s.count++
		if len(s.sample) < holderSample {
			s.sample = append(s.sample, ref)
		} else if i := t.net.RNG().Intn(s.count); i < holderSample {
			// Reservoir: replace uniformly so the sample stays
			// representative of the full holder population.
			s.sample[i] = ref
		}
	}
}

// assign grants up to m.Max digest fetches: rarest-first over the
// requested digests (with a 2x band and random tie-breaking so the swarm
// decorrelates), closest eligible holder per digest, holder budgets
// respected.
func (t *Tracker) assign(ctx *simnet.Context, agent simnet.NodeID, m msgWant) {
	avoid := t.scratchAvoid
	clear(avoid)
	avoid[agent] = true
	for _, p := range m.Avoid {
		avoid[p] = true
	}
	// One pass over the request: resolve each digest once, tracking the
	// rarity floor as we go.
	states := t.scratchStates[:0]
	minRarity := int(^uint(0) >> 1)
	for _, d := range m.Need {
		s := t.digests[d]
		states = append(states, s)
		if s != nil && s.count > 0 && s.count < minRarity {
			minRarity = s.count
		}
	}
	t.scratchStates = states
	// Candidates sit within a 2x band of the rarest; visiting them in
	// random order decorrelates concurrent swarm members. We permute
	// in place over the request's digest list (shared band membership
	// makes a full sort unnecessary).
	rng := t.net.RNG()
	need := m.Need
	for i := len(need) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		need[i], need[j] = need[j], need[i]
		states[i], states[j] = states[j], states[i]
	}
	max := m.Max
	if max <= 0 {
		max = 1
	}
	ap := t.net.Placement(agent)
	var grants []grant
	// Two passes: rare digests (within a 2x band of the rarest) first, so
	// new bytes replicate before they bottleneck, then everything else.
	// Rarity is a priority, not a filter — an exclusive band would pin the
	// whole swarm's grant rate to the rare chunks' few (budget-capped)
	// holders while well-replicated chunks sit ungranted beside them.
	for _, rareOnly := range [2]bool{true, false} {
		for i, d := range need {
			if len(grants) >= max {
				break
			}
			s := states[i]
			if s == nil || s.count == 0 {
				continue
			}
			if rareOnly != (s.count <= 2*minRarity) {
				continue
			}
			peer := t.pickHolder(s, ap, avoid)
			if peer == "" {
				continue
			}
			t.busy[peer]++
			t.Assignments++
			grants = append(grants, grant{Digest: d, Peer: peer})
		}
	}
	t.Wants++
	if len(grants) == 0 {
		t.EmptyWants++
	}
	ctx.Send(agent, msgAssign{Grants: grants, Retry: len(grants) == 0})
}

// pickHolder prefers same-cluster, then same-region, then anything — the
// locality awareness of §3.5 — among sampled holders that are up and not
// avoided. Locality is strict: a grant spills to a farther class only
// when a nearer class has no live holder at all. A budget-saturated
// nearby holder means "retry next tick", not "fetch cross-cluster" — the
// cluster's own capacity doubles as agents complete, so waiting a tick is
// cheaper than crossing the network spine.
func (t *Tracker) pickHolder(s *digestState, ap simnet.Placement, avoid map[simnet.NodeID]bool) simnet.NodeID {
	// Reservoir-pick one free holder per locality class in a single pass
	// over the sample — uniform among the free holders of each class
	// without materializing the class lists.
	var cluster, region, far simnet.NodeID // uniform pick among free holders
	var nCluster, nRegion, nFar int
	var clusterAny, regionAny, farAny bool // any live holder, even saturated
	rng := t.net.RNG()
	for _, h := range s.sample {
		if avoid[h.id] || t.net.IsDown(h.id) {
			continue
		}
		free := t.busy[h.id] < t.budget
		switch {
		case h.pl.Region == ap.Region && h.pl.Cluster == ap.Cluster:
			clusterAny = true
			if free {
				nCluster++
				if rng.Intn(nCluster) == 0 {
					cluster = h.id
				}
			}
		case h.pl.Region == ap.Region:
			regionAny = true
			if free {
				nRegion++
				if rng.Intn(nRegion) == 0 {
					region = h.id
				}
			}
		default:
			farAny = true
			if free {
				nFar++
				if rng.Intn(nFar) == 0 {
					far = h.id
				}
			}
		}
	}
	switch {
	case clusterAny:
		return cluster
	case regionAny:
		return region
	case farAny:
		// Cross-region bootstrap is rationed per requesting region: once
		// the region holds copies, its agents fetch locally instead.
		if t.busyFar[ap.Region] >= farBudget {
			return ""
		}
		if far != "" {
			t.busyFar[ap.Region]++
			return far
		}
	}
	return ""
}
