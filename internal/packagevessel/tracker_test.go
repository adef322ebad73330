package packagevessel

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
	"configerator/internal/stats"
)

// mapTracker is the reference the indexed Tracker is held to, grant for
// grant and RNG draw for RNG draw: busy and avoid are maps keyed by node
// id, every sampled holder is checked with Network.IsDown, and a pick
// scans the whole sample once per locality class.
type mapTracker struct {
	net *simnet.Network

	digests      map[blob.Digest]*mapDigestState
	busy         map[simnet.NodeID]int
	budget       int
	busyFar      map[string]int
	scratchAvoid map[simnet.NodeID]bool
	// clusters numbers placements in the order the tracker first sees a
	// node (a holder announcing, a requester, an avoided peer); a sample
	// is ordered by that number, then by node index.
	clusters map[simnet.Placement]int

	Assignments, Wants, EmptyWants uint64
}

type mapHolderRef struct {
	id      simnet.NodeID
	pl      simnet.Placement
	cluster int
	idx     int32
}

type mapDigestState struct {
	count   int
	holders map[simnet.NodeID]bool
	sample  []mapHolderRef
}

func newMapTracker(net *simnet.Network, id simnet.NodeID, p simnet.Placement, budget int) *mapTracker {
	t := &mapTracker{
		net:          net,
		digests:      make(map[blob.Digest]*mapDigestState),
		busy:         make(map[simnet.NodeID]int),
		budget:       budget,
		busyFar:      make(map[string]int),
		scratchAvoid: make(map[simnet.NodeID]bool),
		clusters:     make(map[simnet.Placement]int),
	}
	net.AddNode(id, p, t)
	net.SetTimer(id, trackerTick, msgTrackerTick{})
	return t
}

func (t *mapTracker) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case simnet.Restarted, msgTrackerTick:
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

// see numbers id's cluster if it is the first node seen there.
func (t *mapTracker) see(id simnet.NodeID) int {
	p := t.net.Placement(id)
	c, ok := t.clusters[p]
	if !ok {
		c = len(t.clusters)
		t.clusters[p] = c
	}
	return c
}

func (t *mapTracker) addHolder(holder simnet.NodeID, digests []blob.Digest) {
	if len(digests) == 0 {
		return
	}
	ref := mapHolderRef{id: holder, pl: t.net.Placement(holder), cluster: t.see(holder), idx: t.net.Index(holder)}
	for _, d := range digests {
		s := t.digests[d]
		if s == nil {
			s = &mapDigestState{holders: make(map[simnet.NodeID]bool)}
			t.digests[d] = s
		}
		if s.holders[holder] {
			continue
		}
		s.holders[holder] = true
		s.count++
		if len(s.sample) < holderSample {
			s.sample = append(s.sample, ref)
		} else if i := t.net.RNG().Intn(s.count); i < holderSample {
			s.sample = append(append(s.sample[:i:i], s.sample[i+1:]...), ref)
		}
		sort.Slice(s.sample, func(i, j int) bool {
			a, b := s.sample[i], s.sample[j]
			return a.cluster < b.cluster || a.cluster == b.cluster && a.idx < b.idx
		})
	}
}

func (t *mapTracker) assign(ctx *simnet.Context, agent simnet.NodeID, m msgWant) {
	avoid := t.scratchAvoid
	clear(avoid)
	avoid[agent] = true
	t.see(agent)
	for _, p := range m.Avoid {
		avoid[p] = true
		t.see(p)
	}
	var states []*mapDigestState
	minRarity := int(^uint(0) >> 1)
	for _, d := range m.Need {
		s := t.digests[d]
		states = append(states, s)
		if s != nil && s.count > 0 && s.count < minRarity {
			minRarity = s.count
		}
	}
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

// pickHolder takes the locality classes nearest first. The first class
// with a holder that is up and not avoided decides: a uniform draw among
// its free holders, in sample order, or nothing if none is free or the
// class is cross-region and the region's far budget is spent.
func (t *mapTracker) pickHolder(s *mapDigestState, ap simnet.Placement, avoid map[simnet.NodeID]bool) simnet.NodeID {
	classOf := func(pl simnet.Placement) int {
		switch {
		case pl == ap:
			return sameCluster
		case pl.Region == ap.Region:
			return sameRegion
		}
		return farAway
	}
	for class := sameCluster; class <= farAway; class++ {
		live := false
		var free []simnet.NodeID
		for _, h := range s.sample {
			if classOf(h.pl) != class || avoid[h.id] || t.net.IsDown(h.id) {
				continue
			}
			live = true
			if t.busy[h.id] < t.budget {
				free = append(free, h.id)
			}
		}
		if !live {
			continue
		}
		if len(free) == 0 || class == farAway && t.busyFar[ap.Region] >= farBudget {
			return ""
		}
		if class == farAway {
			t.busyFar[ap.Region]++
		}
		return free[t.net.RNG().Intn(len(free))]
	}
	return ""
}

// Differential oracle: two networks built from the same seed, one running
// the indexed Tracker and one the mapTracker, are driven by one decoded op
// stream. After every op the two must have sent the same replies, counted
// the same wants and grants, and left their RNGs at the same draw.

const (
	twinTracker  simnet.NodeID = "tracker"
	twinBudget                 = 2 // small, so holders saturate within a tick
	twinDigests                = 10
	twinHolders                = 8
	twinMaxNodes               = 12 // holders plus nodes joining later
	// twinStep is how long each op runs the network: far longer than any
	// hop under twinLatency, far shorter than trackerTick.
	twinStep = time.Millisecond
)

// twinLatency keeps every hop in the microseconds, jitter included, so an
// op's messages are all delivered within twinStep.
var twinLatency = simnet.LatencyModel{SameCluster: time.Microsecond, SameRegion: 2 * time.Microsecond,
	CrossRegion: 5 * time.Microsecond, Jitter: 0.2}

// twinPlacement spreads nodes over two clusters of one region and two of
// another, so every locality class of pickHolder is reached. One cluster
// name, c0, is in both regions: us/c0 and eu/c0 are different clusters.
func twinPlacement(i int) simnet.Placement {
	switch i % 4 {
	case 0:
		return simnet.Placement{Region: "us", Cluster: "c0"}
	case 1:
		return simnet.Placement{Region: "us", Cluster: "c1"}
	case 2:
		return simnet.Placement{Region: "eu", Cluster: "c2"}
	}
	return simnet.Placement{Region: "eu", Cluster: "c0"}
}

// twin is one side of the differential run.
type twin struct {
	net     *simnet.Network
	replies []msgAssign
	counts  func() [3]uint64 // Assignments, Wants, EmptyWants
}

func newTwin(seed uint64, indexed bool) *twin {
	tw := &twin{net: simnet.New(twinLatency, seed)}
	store := simnet.Placement{Region: "us", Cluster: "store"}
	if indexed {
		tr := NewTracker(tw.net, twinTracker, store)
		tr.SetHolderBudget(twinBudget)
		tw.counts = func() [3]uint64 { return [3]uint64{tr.Assignments, tr.Wants, tr.EmptyWants} }
	} else {
		tr := newMapTracker(tw.net, twinTracker, store, twinBudget)
		tw.counts = func() [3]uint64 { return [3]uint64{tr.Assignments, tr.Wants, tr.EmptyWants} }
	}
	for i := 0; i < twinHolders; i++ {
		tw.join(i)
	}
	return tw
}

// join adds node i, which records every grant reply it receives.
func (tw *twin) join(i int) {
	tw.net.AddNode(twinNode(i), twinPlacement(i), simnet.HandlerFunc(
		func(_ *simnet.Context, _ simnet.NodeID, msg simnet.Message) {
			if m, ok := msg.(msgAssign); ok {
				tw.replies = append(tw.replies, m)
			}
		}))
}

func twinNode(i int) simnet.NodeID { return simnet.NodeID(fmt.Sprintf("n%d", i)) }

// opReader decodes an op stream; past the end every read is 0.
type opReader struct{ data []byte }

func (r *opReader) more() bool { return len(r.data) > 0 }

func (r *opReader) next(n int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % n
}

func (r *opReader) digests(max int) []blob.Digest {
	ds := make([]blob.Digest, r.next(max)+1)
	for i := range ds {
		ds[i] = blob.Digest(r.next(twinDigests) + 1)
	}
	return ds
}

// runTrackerTwins decodes ops and applies each to both twins:
//
//	announce  a node announces 1–4 digests (re-announces included)
//	want      a node asks for 1–6 digests (some never announced), maybe
//	          announcing some first, with an Avoid list of 0–2 nodes
//	toggle    a node fails, or recovers if it is down
//	tick      the network runs one trackerTick, so budgets refill
//	crash     the tracker fails, or restarts if it is down
//	join      a node joins the network after the trackers were built
func runTrackerTwins(t *testing.T, seed uint64, ops []byte) {
	t.Helper()
	tws := [2]*twin{newTwin(seed, true), newTwin(seed, false)}
	nodes := twinHolders
	r := &opReader{data: ops}
	for step := 0; r.more(); step++ {
		var do func(tw *twin)
		switch code := r.next(16); {
		case code < 4:
			from, ds := twinNode(r.next(nodes)), r.digests(4)
			do = func(tw *twin) { tw.net.Send(from, twinTracker, msgAnnounce{Digests: ds}) }
		case code < 11:
			from := twinNode(r.next(nodes))
			var have []blob.Digest
			if r.next(3) == 0 {
				have = r.digests(2)
			}
			need := r.digests(6)
			avoid := make([]simnet.NodeID, r.next(3))
			for i := range avoid {
				avoid[i] = twinNode(r.next(nodes))
			}
			max := r.next(5)
			do = func(tw *twin) {
				// assign permutes Need in place: each twin gets its own copy.
				m := msgWant{Have: have, Need: append([]blob.Digest(nil), need...), Max: max, Avoid: avoid}
				tw.net.Send(from, twinTracker, m)
			}
		case code < 13:
			id := twinNode(r.next(nodes))
			do = func(tw *twin) { toggle(tw.net, id) }
		case code < 14:
			do = func(tw *twin) { tw.net.RunFor(trackerTick) }
		case code < 15:
			do = func(tw *twin) { toggle(tw.net, twinTracker) }
		default:
			if nodes == twinMaxNodes {
				continue
			}
			i := nodes
			nodes++
			do = func(tw *twin) { tw.join(i) }
		}
		for _, tw := range tws {
			do(tw)
			tw.net.RunFor(twinStep)
		}
		a, b := tws[0], tws[1]
		if !reflect.DeepEqual(a.replies, b.replies) {
			t.Fatalf("op %d: replies diverge:\nindexed %+v\nmap     %+v", step, a.replies, b.replies)
		}
		if ca, cb := a.counts(), b.counts(); ca != cb {
			t.Fatalf("op %d: Assignments, Wants, EmptyWants = %v, map tracker %v", step, ca, cb)
		}
		if da, db := a.net.RNG().Uint64(), b.net.RNG().Uint64(); da != db {
			t.Fatalf("op %d: RNG draws diverge", step)
		}
	}
}

func toggle(net *simnet.Network, id simnet.NodeID) {
	if net.IsDown(id) {
		net.Recover(id)
	} else {
		net.Fail(id)
	}
}

// TestTrackerMatchesMapReference: the indexed tracker grants what the
// string-keyed tracker grants, draw for draw, over long random op streams.
func TestTrackerMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		rng := stats.NewRNG(seed)
		ops := make([]byte, 3000)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runTrackerTwins(t, seed, ops)
	}
}

// FuzzTrackerMatchesMapReference: the same oracle on fuzzed op streams.
func FuzzTrackerMatchesMapReference(f *testing.F) {
	f.Add(uint64(1), []byte("\x00\x01\x02\x05\x04\x00\x03\x03\x01\x04\x06\x00\x01\x02"))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		runTrackerTwins(t, seed, ops)
	})
}

// warmWantAllocs is what a warm want cost when the tracker kept busy and
// avoid as maps keyed by node id: the grant list as it grows to Max = 4,
// and the boxed reply.
const warmWantAllocs = 4

// TestWarmWantAllocs: once the tracker knows every holder, a want costs no
// more allocations than it did when holders were keyed by id, and never
// grows the per-node tables.
func TestWarmWantAllocs(t *testing.T) {
	const holders = 64
	net := simnet.New(twinLatency, 1)
	tr := NewTracker(net, twinTracker, simnet.Placement{Region: "us", Cluster: "store"})
	tr.SetHolderBudget(1 << 30)
	need := make([]blob.Digest, 8)
	for i := range need {
		need[i] = blob.Digest(i + 1)
	}
	for i := 0; i < holders; i++ {
		net.AddNode(twinNode(i), twinPlacement(i), simnet.HandlerFunc(func(*simnet.Context, simnet.NodeID, simnet.Message) {}))
		net.Send(twinNode(i), twinTracker, msgAnnounce{Digests: need})
	}
	ctx := simnet.MakeContext(net, twinTracker)
	want := func() {
		tr.HandleMessage(&ctx, "n0", msgWant{Need: need, Max: 4, Avoid: []simnet.NodeID{"n1", "n2"}})
		net.RunFor(twinStep)
	}
	want()
	nodes := tr.nodes
	if allocs := testing.AllocsPerRun(200, want); allocs > warmWantAllocs {
		t.Errorf("a warm want allocates %.1f times, want at most %d", allocs, warmWantAllocs)
	}
	if len(tr.nodes) != len(nodes) || &tr.nodes[0] != &nodes[0] {
		t.Errorf("a warm want regrew the node table: %d → %d entries", len(nodes), len(tr.nodes))
	}
	if tr.Assignments == 0 {
		t.Fatal("no want was granted: the gate measured nothing")
	}
}
