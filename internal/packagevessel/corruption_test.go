package packagevessel

import (
	"testing"
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// rogue is a peer that advertises chunks it then serves corrupted: every
// msgGetChunk is answered with bytes that do not hash to the requested
// digest. Content addressing makes this attack (or plain bit rot on a
// peer's disk) detectable at the receiver.
type rogue struct {
	id     simnet.NodeID
	Served int
}

func (r *rogue) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if m, ok := msg.(msgGetChunk); ok {
		r.Served++
		ctx.SendSized(from, msgChunk{
			Digest: m.Digest, Data: []byte("corrupt payload"), Size: DefaultChunkSize, OK: true,
		}, DefaultChunkSize)
	}
}

// TestCorruptPeerQuarantined: a peer serving digest-mismatched bytes is
// quarantined after the first bad chunk, and every chunk is re-fetched
// from an honest holder — the final package verifies.
func TestCorruptPeerQuarantined(t *testing.T) {
	// The registry sits in a far cluster; the rogue shares the agent's
	// cluster, so locality-aware selection prefers it — worst case.
	s := NewSwarm(21, 1, 1)
	net, a := s.Net, s.Agents[0]
	bad := &rogue{id: "rogue"}
	net.AddNode("rogue", simnet.Placement{Region: "us", Cluster: "c0"}, bad)
	net.SetBandwidth("rogue", SwarmBps, SwarmBps)

	m := publish(t, s, model(1, 8<<20))
	// The rogue claims to hold every digest.
	digests := make([]blob.Digest, 0, len(m.Chunks))
	for _, r := range m.Chunks {
		digests = append(digests, r.Digest)
	}
	net.Send("rogue", s.Tracker.ID(), msgAnnounce{Digests: digests})
	net.RunFor(time.Second)

	a.OnAnnounce(MetadataFor(m, "registry", "tracker"))
	net.RunFor(5 * time.Minute)

	if !a.Complete("model", 1) {
		t.Fatal("download never completed despite an honest holder")
	}
	if bad.Served == 0 {
		t.Fatal("rogue was never asked; locality setup is not exercising the corrupt path")
	}
	if a.CorruptChunks == 0 {
		t.Fatal("no corrupt chunks detected")
	}
	q := a.Quarantined()
	if len(q) != 1 || q[0] != "rogue" {
		t.Fatalf("quarantined = %v, want [rogue]", q)
	}
	// Quarantine is immediate: after the first mismatch no further fetch
	// goes to the rogue, so it served at most the per-peer in-flight cap.
	if bad.Served > 2 {
		t.Errorf("rogue served %d fetches after detection should have stopped at <= 2", bad.Served)
	}
	// Every committed chunk verifies against its manifest digest.
	if present, missing := a.Store().Verify(m); len(missing) != 0 || len(present) != 8 {
		t.Errorf("final verify: %d present, %d missing", len(present), len(missing))
	}
}

// corruptOrigin serves honest manifests out of a registry's store and
// corrupt bytes for every chunk.
type corruptOrigin struct {
	rogue
	store *blob.Store
}

func (c *corruptOrigin) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if _, ok := msg.(msgGetManifest); ok {
		serve(ctx, c.store, from, msg)
		return
	}
	c.rogue.HandleMessage(ctx, from, msg)
}

// TestTrackerlessCorruptOriginStalls: with no tracker the origin is the only
// holder, so once it is quarantined the transfer waits — it neither trusts the
// bytes nor keeps asking.
func TestTrackerlessCorruptOriginStalls(t *testing.T) {
	r := NewSwarm(22, 1, 1)
	a := r.Agents[0]
	m := publish(t, r, model(1, 8<<20))
	bad := &corruptOrigin{store: r.Registry.Store()}
	r.Net.AddNode("mirror", simnet.Placement{Region: "us", Cluster: "store"}, bad)

	a.OnAnnounce(MetadataFor(m, "mirror", ""))
	r.Net.RunFor(5 * time.Minute)

	if a.Complete("model", 1) || a.ChunksFetched != 0 {
		t.Fatalf("complete = %v with %d chunks stored from a corrupt origin", a.Complete("model", 1), a.ChunksFetched)
	}
	if q := a.Quarantined(); len(q) != 1 || q[0] != "mirror" {
		t.Fatalf("quarantined = %v, want [mirror]", q)
	}
	if bad.Served > perPeerInflight {
		t.Errorf("origin was asked for %d chunks, want at most the per-peer cap %d", bad.Served, perPeerInflight)
	}
}

// TestStaleTimeoutSparesRefetch: a fetch's timeout reclaims that fetch
// and no later one. The first peer answers "not held" after 10 s, and the
// re-fetch from a slow second peer takes 25 s, so the first fetch's
// deadline passes while the second is still in flight. The second fetch
// must run to its own deadline: one request to the slow peer, one chunk.
func TestStaleTimeoutSparesRefetch(t *testing.T) {
	s := NewSwarm(23, 1, 1)
	net, a := s.Net, s.Agents[0]
	m := publish(t, s, model(1, 1<<20))
	d := m.Chunks[0].Digest
	here := simnet.Placement{Region: "us", Cluster: "c0"}

	// coord grants the first want to "empty" and every later one to "slow".
	wants := 0
	net.AddNode("coord", here, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if _, ok := msg.(msgWant); ok {
			peer := simnet.NodeID("slow")
			if wants++; wants == 1 {
				peer = "empty"
			}
			ctx.Send(from, msgAssign{Grants: []grant{{Digest: d, Peer: peer}}})
		}
	}))
	net.AddNode("empty", here, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if g, ok := msg.(msgGetChunk); ok {
			ctx.Send(from, msgChunk{Digest: g.Digest})
		}
	}))
	asked := 0
	net.AddNode("slow", here, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if _, ok := msg.(msgGetChunk); ok {
			asked++
		}
		serve(ctx, s.Registry.Store(), from, msg)
	}))
	net.SetLinkLatency(a.id, "empty", 10*time.Second)
	net.SetLinkLatency("slow", a.id, 25*time.Second)

	a.OnAnnounce(MetadataFor(m, "registry", "coord"))
	net.RunFor(2 * time.Minute)

	if !a.Complete("model", 1) {
		t.Fatal("the transfer never completed")
	}
	if asked != 1 || a.ChunksFetched != 1 || wants != 2 {
		t.Errorf("slow peer asked %d times, %d chunks fetched, %d wants; want 1, 1, 2 (a stale timeout reclaimed the re-fetch?)",
			asked, a.ChunksFetched, wants)
	}
}
