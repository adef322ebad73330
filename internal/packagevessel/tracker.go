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

// holderRef is a sampled holder with its node index and locality cached at
// announce time (both are immutable in the simulation), so peer selection
// never resolves a node id or compares a placement string on the hot path.
type holderRef struct {
	id  simnet.NodeID
	idx int32
	loc locality
}

// locality is a node's placement as dense ids the tracker hands out: one per
// region, one per distinct (region, cluster) pair — so two nodes share a
// cluster id only when they share region and cluster, and a cluster name
// reused in another region is another cluster.
type locality struct{ region, cluster int32 }

// unplaced marks a node index the tracker has not numbered yet.
var unplaced = locality{-1, -1}

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
	// busy counts grants per holder in the current tick, indexed by the
	// holder's simnet node index; refilled (cleared) every trackerTick so
	// one seed is never the whole first wave's target.
	busy   []int
	budget int
	// loc is each node's locality, by node index, numbered the first time
	// node sees the node; regions and clusters hand out the ids.
	loc      []locality
	regions  map[string]int32
	clusters map[simnet.Placement]int32
	// busyFar counts cross-region grants per requesting region id this
	// tick.
	busyFar []int
	// avoid marks, by node index, the nodes the current want must not be
	// granted: node i is avoided when avoid[i] == avoidGen. Each want bumps
	// avoidGen, which unmarks every node at once (64 bits never wrap).
	avoid    []uint64
	avoidGen uint64

	// scratchStates is reused across assign calls (the tracker handles one
	// message at a time, so per-call allocation here is pure GC churn at
	// fleet scale).
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
		digests:  make(map[blob.Digest]*digestState),
		budget:   defaultHolderBudget,
		regions:  make(map[string]int32),
		clusters: make(map[simnet.Placement]int32),
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

// HandleMessage implements simnet.Handler.
func (t *Tracker) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case simnet.Restarted, msgTrackerTick:
		// Refill (or restart the budget chain): clear per-holder and
		// per-region grant counts and re-arm.
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

// node resolves id to its node index, sizes the per-node tables to hold it
// and numbers its locality. Indices enter the tracker only here (holders at
// announce time, the requester and its Avoid list at want time), so the
// grant loop indexes busy, avoid and loc without bounds growing.
func (t *Tracker) node(id simnet.NodeID) int32 {
	i := t.net.Index(id)
	for int(i) >= len(t.busy) {
		t.busy = append(t.busy, 0)
		t.avoid = append(t.avoid, 0)
		t.loc = append(t.loc, unplaced)
	}
	if t.loc[i] == unplaced {
		p := t.net.Placement(id)
		r, ok := t.regions[p.Region]
		if !ok {
			r = int32(len(t.regions))
			t.regions[p.Region] = r
			t.busyFar = append(t.busyFar, 0)
		}
		c, ok := t.clusters[p]
		if !ok {
			c = int32(len(t.clusters))
			t.clusters[p] = c
		}
		t.loc[i] = locality{region: r, cluster: c}
	}
	return i
}

func (t *Tracker) addHolder(holder simnet.NodeID, digests []blob.Digest) {
	if len(digests) == 0 {
		return
	}
	i := t.node(holder)
	ref := holderRef{id: holder, idx: i, loc: t.loc[i]}
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
	t.avoidGen++
	ai := t.node(agent)
	t.avoid[ai] = t.avoidGen
	for _, p := range m.Avoid {
		t.avoid[t.node(p)] = t.avoidGen
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
	al := t.loc[ai]
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
			h := t.pickHolder(s, al)
			if h == nil {
				continue
			}
			t.busy[h.idx]++
			t.Assignments++
			grants = append(grants, grant{Digest: d, Peer: h.id})
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
// cheaper than crossing the network spine. It returns nil when no holder
// may be granted.
func (t *Tracker) pickHolder(s *digestState, al locality) *holderRef {
	// Reservoir-pick one free holder per locality class in a single pass
	// over the sample — uniform among the free holders of each class
	// without materializing the class lists.
	var cluster, region, far *holderRef // uniform pick among free holders
	var nCluster, nRegion, nFar int
	var clusterAny, regionAny, farAny bool // any live holder, even saturated
	rng := t.net.RNG()
	for k := range s.sample {
		h := &s.sample[k]
		if t.avoid[h.idx] == t.avoidGen || t.net.IsDownIdx(h.idx) {
			continue
		}
		free := t.busy[h.idx] < t.budget
		switch {
		case h.loc.cluster == al.cluster:
			clusterAny = true
			if free {
				nCluster++
				if rng.Intn(nCluster) == 0 {
					cluster = h
				}
			}
		case h.loc.region == al.region:
			regionAny = true
			if free {
				nRegion++
				if rng.Intn(nRegion) == 0 {
					region = h
				}
			}
		default:
			farAny = true
			if free {
				nFar++
				if rng.Intn(nFar) == 0 {
					far = h
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
		if t.busyFar[al.region] >= farBudget {
			return nil
		}
		if far != nil {
			t.busyFar[al.region]++
			return far
		}
	}
	return nil
}
