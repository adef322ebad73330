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
	net := simnet.New(simnet.DefaultLatency(), 21)
	// The registry sits in a far cluster; the rogue shares the agent's
	// cluster, so locality-aware selection prefers it — worst case.
	registry := NewRegistry(net, "registry", simnet.Placement{Region: "us", Cluster: "store"}, "tracker")
	net.SetBandwidth("registry", serverBps, serverBps)
	tracker := NewTracker(net, "tracker", simnet.Placement{Region: "us", Cluster: "store"})
	bad := &rogue{id: "rogue"}
	net.AddNode("rogue", simnet.Placement{Region: "us", Cluster: "c0"}, bad)
	net.SetBandwidth("rogue", serverBps, serverBps)
	a := NewAgent(net, "srv-0", simnet.Placement{Region: "us", Cluster: "c0"}, Options{})
	net.SetBandwidth("srv-0", serverBps, serverBps)

	m, err := registry.Publish(SyntheticPackage("model", 1, 8<<20, DefaultChunkSize, 42))
	if err != nil {
		t.Fatal(err)
	}
	// The rogue claims to hold every digest.
	digests := make([]blob.Digest, 0, len(m.Chunks))
	for _, r := range m.Chunks {
		digests = append(digests, r.Digest)
	}
	net.Send("rogue", tracker.ID(), msgAnnounce{Digests: digests})
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
	r := newSwarm(t, 1, 1, 22)
	a := r.agents[0]
	m, err := r.registry.Publish(SyntheticPackage("model", 1, 8<<20, DefaultChunkSize, 42))
	if err != nil {
		t.Fatal(err)
	}
	bad := &corruptOrigin{store: r.registry.Store()}
	r.net.AddNode("mirror", simnet.Placement{Region: "us", Cluster: "store"}, bad)

	a.OnAnnounce(MetadataFor(m, "mirror", ""))
	r.net.RunFor(5 * time.Minute)

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
