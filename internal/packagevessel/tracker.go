package packagevessel

import (
	"cmp"
	"slices"
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
//     thousands of map entries per digest. The count is of distinct
//     holders: a node announcing a digest again is not counted again.
//   - A sample is kept in cluster order, so a grant reads the requester's
//     own cluster first and the rest of the sample only when that cluster
//     has no live holder. Most wants find the own cluster saturated and
//     retry; they read a few holders, not the whole sample.
//   - What a pick reads per holder — its avoid mark and grant count — sits
//     in one per-node slice, so a candidate costs one cache line.
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

// holderRef is a sampled holder: its node index and the dense id of its
// cluster, both fixed at announce time (placement is immutable in the
// simulation), so peer selection never resolves a node id or compares a
// placement string on the hot path.
type holderRef struct{ idx, cluster int32 }

// compare orders a sample: by cluster, then by node index.
func (h holderRef) compare(o holderRef) int {
	return cmp.Or(cmp.Compare(h.cluster, o.cluster), cmp.Compare(h.idx, o.idx))
}

// nodeState is the tracker's per-node record, by node index.
type nodeState struct {
	// avoid marks the node for the current want: it is avoided when avoid
	// equals the tracker's avoidGen.
	avoid uint64
	// busy counts grants to the node in the current tick.
	busy int32
	// cluster is the node's dense cluster id, or unplaced.
	cluster int32
}

// unplaced marks a node the tracker has not numbered yet.
const unplaced = -1

// digestState tracks one digest's holders.
type digestState struct {
	count int // exact holder count (rarity)
	// counted marks, by node index, the holders count includes: a holder
	// announcing a digest again (a registry publishing a version that shares
	// it, an agent re-announcing its disk after a restart) is not counted
	// twice.
	counted []uint64
	// sample is a reservoir sample of holders (peer selection), in
	// holderRef.compare order.
	sample []holderRef
}

// add records holder i, reporting false if it was already counted.
func (s *digestState) add(i int32) bool {
	w, bit := int(i>>6), uint64(1)<<(i&63)
	if w >= len(s.counted) {
		s.counted = append(s.counted, make([]uint64, w+1-len(s.counted))...)
	}
	if s.counted[w]&bit != 0 {
		return false
	}
	s.counted[w] |= bit
	s.count++
	return true
}

// insert puts h into the sample at its place in cluster order.
func (s *digestState) insert(h holderRef) {
	k, _ := slices.BinarySearchFunc(s.sample, h, holderRef.compare)
	s.sample = slices.Insert(s.sample, k, h)
}

// run returns the sample positions [lo, hi) of cluster c's holders.
func (s *digestState) run(c int32) (lo, hi int) {
	lo, _ = slices.BinarySearchFunc(s.sample, holderRef{idx: -1, cluster: c}, holderRef.compare)
	hi, _ = slices.BinarySearchFunc(s.sample, holderRef{idx: -1, cluster: c + 1}, holderRef.compare)
	return lo, hi
}

// Tracker coordinates swarms by digest rarity.
type Tracker struct {
	id  simnet.NodeID
	net *simnet.Network

	digests map[blob.Digest]*digestState
	// nodes holds what a grant reads per node, by simnet node index; busy
	// is cleared every trackerTick so one seed is never the whole first
	// wave's target. Each want bumps avoidGen, which unmarks every avoided
	// node at once (64 bits never wrap).
	nodes    []nodeState
	avoidGen uint64
	budget   int
	// regions and clusters number nodes' placements the first time the
	// tracker sees them: two nodes share a cluster id only when they share
	// region and cluster, so a cluster name reused in another region is
	// another cluster. regionOf maps a cluster id to its region id.
	regions  map[string]int32
	clusters map[simnet.Placement]int32
	regionOf []int32
	// busyFar counts cross-region grants per requesting region id this
	// tick.
	busyFar []int

	// scratchStates is reused across assign calls (the tracker handles one
	// message at a time, so per-call allocation here is pure GC churn at
	// fleet scale).
	scratchStates []*digestState
	scratchFree   []int32

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
		for i := range t.nodes {
			t.nodes[i].busy = 0
		}
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

// node resolves id to its node index, sizes the per-node table to hold it
// and numbers its cluster. Indices enter the tracker only here (holders at
// announce time, the requester and its Avoid list at want time), so the
// grant loop indexes nodes without bounds growing.
func (t *Tracker) node(id simnet.NodeID) int32 {
	i := t.net.Index(id)
	for int(i) >= len(t.nodes) {
		t.nodes = append(t.nodes, nodeState{cluster: unplaced})
	}
	if t.nodes[i].cluster == unplaced {
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
			t.regionOf = append(t.regionOf, r)
		}
		t.nodes[i].cluster = c
	}
	return i
}

func (t *Tracker) addHolder(holder simnet.NodeID, digests []blob.Digest) {
	if len(digests) == 0 {
		return
	}
	i := t.node(holder)
	ref := holderRef{idx: i, cluster: t.nodes[i].cluster}
	for _, d := range digests {
		s := t.digests[d]
		if s == nil {
			s = &digestState{}
			t.digests[d] = s
		}
		if !s.add(i) {
			continue
		}
		if len(s.sample) < holderSample {
			s.insert(ref)
		} else if k := t.net.RNG().Intn(s.count); k < holderSample {
			// Reservoir: replace uniformly so the sample stays
			// representative of the full holder population.
			s.sample = slices.Delete(s.sample, k, k+1)
			s.insert(ref)
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
	t.nodes[ai].avoid = t.avoidGen
	for _, p := range m.Avoid {
		t.nodes[t.node(p)].avoid = t.avoidGen
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
	ac := t.nodes[ai].cluster
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
			h := t.pickHolder(s, ac)
			if h < 0 {
				continue
			}
			t.nodes[h].busy++
			t.Assignments++
			grants = append(grants, grant{Digest: d, Peer: t.net.ID(h)})
		}
	}
	t.Wants++
	if len(grants) == 0 {
		t.EmptyWants++
	}
	ctx.Send(agent, msgAssign{Grants: grants, Retry: len(grants) == 0})
}

// Locality classes, nearest first: the requester's cluster, the other
// clusters of its region, everything else.
const (
	sameCluster = iota
	sameRegion
	farAway
)

// pickHolder prefers same-cluster, then same-region, then anything — the
// locality awareness of §3.5 — among sampled holders that are up and not
// avoided, for a requester in cluster ac. Locality is strict: a grant
// spills to a farther class only when the nearer classes have no live
// holder at all. A budget-saturated nearby holder means "retry next
// tick", not "fetch cross-cluster" — the cluster's own capacity doubles as
// agents complete, so waiting a tick is cheaper than crossing the network
// spine. The pick is uniform among the free holders of the nearest class
// with a live one, one draw; it returns that holder's node index, or -1
// when no holder may be granted.
//
// The requester's cluster is one run of the cluster-ordered sample, and
// it is the only part read unless the cluster has no live holder.
func (t *Tracker) pickHolder(s *digestState, ac int32) int32 {
	ar := t.regionOf[ac]
	lo, hi := s.run(ac)
	free := t.scratchFree[:0] // node indexes of the class's free holders
	for class := sameCluster; class <= farAway; class++ {
		// The class's holders lie in these sample position ranges.
		spans := [2][2]int{{lo, hi}, {hi, hi}}
		if class != sameCluster {
			spans = [2][2]int{{0, lo}, {hi, len(s.sample)}}
		}
		live := false
		free = free[:0]
		for _, span := range spans {
			for _, h := range s.sample[span[0]:span[1]] {
				if class != sameCluster && (t.regionOf[h.cluster] == ar) != (class == sameRegion) {
					continue
				}
				st := &t.nodes[h.idx]
				if st.avoid == t.avoidGen || t.net.IsDownIdx(h.idx) {
					continue
				}
				live = true
				if int(st.busy) < t.budget {
					free = append(free, h.idx)
				}
			}
		}
		t.scratchFree = free
		if !live {
			continue
		}
		// Cross-region bootstrap is rationed per requesting region: once
		// the region holds copies, its agents fetch locally instead.
		if len(free) == 0 || class == farAway && t.busyFar[ar] >= farBudget {
			return -1
		}
		if class == farAway {
			t.busyFar[ar]++
		}
		return free[t.net.RNG().Intn(len(free))]
	}
	return -1
}
