package packagevessel

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"configerator/internal/simnet"
)

// checkAgent fails unless a's fetch schedule is consistent: the per-peer
// counts sum to the fetches in flight, which fill at most the window, each
// peer holds between one fetch and its cap, and an agent with nothing in
// flight holds no grant and has, for every transfer with a digest to fetch,
// a want out or a retry armed — so it is never left waiting for nothing. A
// tracker-less transfer whose origin is quarantined has no holder to ask
// and is exempt.
func checkAgent(t *testing.T, a *Agent) {
	t.Helper()
	sum := 0
	for peer, n := range a.perPeer {
		if n < 1 || n > perPeerInflight {
			t.Fatalf("%s: %d fetches in flight to %s, want 1..%d", a.id, n, peer, perPeerInflight)
		}
		sum += n
	}
	if sum != len(a.inflight) || len(a.inflight) > fetchWindow {
		t.Fatalf("%s: per-peer counts sum to %d, %d fetches in flight (window %d)", a.id, sum, len(a.inflight), fetchWindow)
	}
	if len(a.inflight) > 0 {
		return
	}
	if n := len(a.pending); n > 0 {
		t.Fatalf("%s: nothing in flight and %d grants pending", a.id, n)
	}
	for _, tr := range a.transfers {
		if !a.waiting(tr) || tr.wantOut || tr.retryOut || tr.tracker == "" && slices.Contains(a.avoid, tr.origin) {
			continue
		}
		t.Fatalf("%s: nothing in flight, %s@%d needs %d chunks with no want out and no retry armed",
			a.id, tr.manifest.Name, tr.manifest.Version, len(tr.need))
	}
}

// runChecked steps s until every agent holds every package in mds or bound
// of simulated time has passed, checking every agent after every event, and
// fails unless all completed with nothing left in flight or granted.
func runChecked(t *testing.T, s *Swarm, mds []Metadata, bound time.Duration) {
	t.Helper()
	complete := func() bool {
		for _, a := range s.Agents {
			for _, md := range mds {
				if !a.Complete(md.Name, md.Version) {
					return false
				}
			}
		}
		return true
	}
	for deadline := s.Net.Now().Add(bound); !complete() && s.Net.Now().Before(deadline) && s.Net.Step(); {
		for _, a := range s.Agents {
			checkAgent(t, a)
		}
	}
	for _, a := range s.Agents {
		for _, md := range mds {
			if !a.Complete(md.Name, md.Version) {
				t.Errorf("%s: %s@%d incomplete after %v", a.id, md.Name, md.Version, bound)
			}
		}
		if len(a.inflight) > 0 || len(a.perPeer) > 0 || len(a.pending) > 0 {
			t.Errorf("%s: %d fetches in flight, %d peers counted, %d grants pending after delivery",
				a.id, len(a.inflight), len(a.perPeer), len(a.pending))
		}
	}
}

// euRegistry adds a registry in eu with a swarm's link speed, announcing
// to the swarm's tracker.
func euRegistry(s *Swarm, id simnet.NodeID) *Registry {
	r := NewRegistry(s.Net, id, simnet.Placement{Region: "eu", Cluster: "store"}, s.Tracker.ID())
	s.Net.SetBandwidth(id, SwarmBps, SwarmBps)
	return r
}

// TestConcurrentPackagesComplete announces two packages to the same agents
// at once, which the API allows. The agent keeps one fetch schedule for
// both: every agent completes both packages, with its schedule consistent
// after every event and nothing left in flight or granted at the end.
//   - one registry and no tracker: the registry's per-peer cap is shared,
//     and a slot one package frees must serve the other;
//   - two tracker-less packages sharing a chunk, each from its own registry
//     in the other region: the shared digest is fetched once and serves both;
//   - two packages through the tracker, with no chunk or half of them
//     shared.
func TestConcurrentPackagesComplete(t *testing.T) {
	seeds := func(n uint64) (out []uint64) {
		for seed := uint64(1); seed <= n; seed++ {
			out = append(out, seed)
		}
		return out
	}
	for _, tc := range []struct {
		name             string
		seeds            []uint64
		agents, clusters int
		chunks, shared   int
		euRegistries     bool // each package from its own registry in eu
		tracker          bool
		bound            time.Duration
	}{
		{"one registry, no tracker", []uint64{9}, 1, 1, 8, 0, false, false, 10 * time.Minute},
		{"two registries, one chunk shared, no tracker", seeds(20), 1, 1, 8, 1, true, false, 10 * time.Minute},
		{"tracker, no chunk shared", seeds(10), 20, 2, 16, 0, false, true, 20 * time.Minute},
		{"tracker, 8 of 16 chunks shared", seeds(10), 20, 2, 16, 8, false, true, 20 * time.Minute},
	} {
		for _, seed := range tc.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				s := NewSwarm(seed, tc.agents, tc.clusters)
				var tracker simnet.NodeID
				if tc.tracker {
					tracker = s.Tracker.ID()
				}
				a := SyntheticPackage("a", 1, tc.chunks<<20, DefaultChunkSize, 1)
				b := SyntheticPackage("b", 1, tc.chunks<<20, DefaultChunkSize, 2)
				copy(b.Chunks, a.Chunks[:tc.shared])
				var mds []Metadata
				for i, p := range []Package{a, b} {
					r := s.Registry
					if tc.euRegistries {
						r = euRegistry(s, simnet.NodeID(fmt.Sprintf("registry-eu%d", i)))
					}
					m, err := r.Publish(p)
					if err != nil {
						t.Fatal(err)
					}
					mds = append(mds, MetadataFor(m, r.ID(), tracker))
				}
				for _, a := range s.Agents {
					for _, md := range mds {
						a.OnAnnounce(md)
					}
				}
				runChecked(t, s, mds, tc.bound)
			})
		}
	}
}

// concurrentSwarm lays out the swarm spec describes and schedules its
// announcements; bytes past the end of spec read as zero. spec[0] holds the
// layout: 1 + (bits 0–1 mod 3) packages, 1 + bits 2–3 agents, bit 4 the
// tracker, bit 5 a second registry (in eu, serving every other package),
// bit 6 a second cluster. Four bytes follow per package: 1 + (b mod 16)
// chunks, a 16-bit mask of the chunks it shares with the first package, and
// its announce offset in 50 ms steps.
func concurrentSwarm(seed uint64, spec []byte) (*Swarm, []Metadata) {
	next := func() int {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int(b)
	}
	layout := next()
	s := NewSwarm(seed, 1+layout>>2&3, 1+layout>>6&1)
	var tracker simnet.NodeID
	if layout&16 != 0 {
		tracker = s.Tracker.ID()
	}
	registries := []*Registry{s.Registry}
	if layout&32 != 0 {
		registries = append(registries, euRegistry(s, "registry-eu"))
	}
	var first Package
	var mds []Metadata
	for i := range 1 + layout&3%3 {
		p := SyntheticPackage(fmt.Sprintf("p%d", i), 1, (1+next()%16)<<20, DefaultChunkSize, seed)
		shared := next() | next()<<8
		if i == 0 {
			first = p
		}
		for j := range min(len(p.Chunks), len(first.Chunks)) {
			if shared>>j&1 != 0 {
				p.Chunks[j] = first.Chunks[j]
			}
		}
		r := registries[i%len(registries)]
		m, err := r.Publish(p)
		if err != nil {
			panic(err)
		}
		md := MetadataFor(m, r.ID(), tracker)
		mds = append(mds, md)
		s.Net.After(time.Duration(next())*50*time.Millisecond, func() {
			for _, a := range s.Agents {
				a.OnAnnounce(md)
			}
		})
	}
	return s, mds
}

// FuzzConcurrentTransfers: any mix of packages announced to the same agents
// — one to three of one to sixteen chunks, some shared with the first, from
// one registry or two, through the tracker or not, at staggered instants —
// reaches every agent within ten simulated minutes, and checkAgent holds
// after every event.
func FuzzConcurrentTransfers(f *testing.F) {
	f.Add(uint64(9), []byte("\x01\x07\x00\x00\x00\x07\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, seed uint64, spec []byte) {
		s, mds := concurrentSwarm(seed, spec)
		runChecked(t, s, mds, 10*time.Minute)
	})
}
