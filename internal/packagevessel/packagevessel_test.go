package packagevessel

import (
	"fmt"
	"testing"
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// swarmRig builds a registry node, tracker, and agents spread across
// clusters with realistic (1 Gbit/s) per-server bandwidth.
type swarmRig struct {
	net      *simnet.Network
	registry *Registry
	tracker  *Tracker
	agents   []*Agent
}

const serverBps = 1.25e8 // 1 Gbit/s

func newSwarm(t *testing.T, agents int, clusters int, seed uint64) *swarmRig {
	return newSwarmBps(t, agents, clusters, seed, serverBps)
}

func newSwarmBps(t *testing.T, agents int, clusters int, seed uint64, bps float64) *swarmRig {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), seed)
	r := &swarmRig{net: net}
	r.registry = NewRegistry(net, "registry", simnet.Placement{Region: "us", Cluster: "store"}, "tracker")
	net.SetBandwidth("registry", bps, bps)
	r.tracker = NewTracker(net, "tracker", simnet.Placement{Region: "us", Cluster: "store"})
	for i := 0; i < agents; i++ {
		cluster := fmt.Sprintf("c%d", i%clusters)
		region := "us"
		if i%clusters >= clusters/2 && clusters > 1 {
			region = "eu"
		}
		id := simnet.NodeID(fmt.Sprintf("srv-%d", i))
		a := NewAgent(net, id, simnet.Placement{Region: region, Cluster: cluster}, Options{})
		net.SetBandwidth(id, bps, bps)
		r.agents = append(r.agents, a)
	}
	return r
}

// publish registers a synthetic package and returns its announce record.
func (r *swarmRig) publish(t *testing.T, name string, version int64, size int) Metadata {
	t.Helper()
	m, err := r.registry.Publish(SyntheticPackage(name, version, size, DefaultChunkSize, 42))
	if err != nil {
		t.Fatalf("publish %s@%d: %v", name, version, err)
	}
	return MetadataFor(m, r.registry.ID(), r.tracker.ID())
}

func TestMetadataRoundTrip(t *testing.T) {
	m := Metadata{Name: "model", Version: 3, Size: 10 << 20,
		Manifest: blob.DigestOf([]byte("m")).String(), Registry: "registry", Tracker: "tracker"}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetadata(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("round trip: %+v != %+v", got, m)
	}
}

func TestParseMetadataRejectsGarbage(t *testing.T) {
	digest := blob.DigestOf([]byte("m")).String()
	for _, bad := range []string{
		`{`,
		`{}`,
		`{"name":"x"}`,
		fmt.Sprintf(`{"name":"x","version":-1,"size":1,"manifest":%q}`, digest), // negative version
		fmt.Sprintf(`{"name":"x","version":1,"size":-1,"manifest":%q}`, digest), // bad size
		`{"name":"x","version":1,"size":1,"manifest":"nothex"}`,                 // bad digest
		`{"name":"x","version":1,"size":1,"manifest":"000000000000000g"}`,
		`{"name":"x","version":1,"size":1,"manifest":" 00000000000000f"}`,
		`{"name":"x","version":1,"size":1,"manifest":"0x0000000000000f"}`,
		`{"name":"x","version":1,"size":1,"manifest":"00000000000000 1"}`,
	} {
		if _, err := ParseMetadata([]byte(bad)); err == nil {
			t.Errorf("ParseMetadata(%q) succeeded", bad)
		}
	}
}

func TestTagPathRoundTrip(t *testing.T) {
	path := TagPath("ranker", "canary")
	name, tag, ok := ParseTagPath(path)
	if !ok || name != "ranker" || tag != "canary" {
		t.Fatalf("ParseTagPath(%q) = %q, %q, %v", path, name, tag, ok)
	}
	for _, bad := range []string{"models/ranker.json", "packages/x", "packages/x/y.json"} {
		if _, _, ok := ParseTagPath(bad); ok {
			t.Errorf("ParseTagPath(%q) accepted", bad)
		}
	}
}

func TestParseTagRecordValidation(t *testing.T) {
	rec := TagRecord{Name: "ranker", Tag: "canary", Version: 2, Manifest: blob.DigestOf([]byte("m")).String()}
	data, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseTagRecord(data)
	if err != nil || got != rec {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for _, bad := range []string{
		`{`,
		`{"name":"x","tag":"canary"}`,            // version 0
		`{"name":"x","tag":"beta","version":1}`,  // outside namespace
		`{"name":"","tag":"canary","version":1}`, // no name
		`{"name":"x","tag":"canary","version":-2}`,
		`{"name":"x","tag":"canary","version":1}`,                 // no manifest
		`{"name":"x","tag":"canary","version":1,"manifest":""}`,   // empty manifest
		`{"name":"x","tag":"canary","version":1,"manifest":"aa"}`, // short manifest
		`{"name":"x","tag":"canary","version":1,"manifest":"000000000000000g"}`,
		`{"name":"x","tag":"canary","version":1,"manifest":" 00000000000000f"}`,
		`{"name":"x","tag":"canary","version":1,"manifest":"0x0000000000000f"}`,
		`{"name":"x","tag":"canary","version":1,"manifest":"00000000000000 1"}`,
	} {
		if _, err := ParseTagRecord([]byte(bad)); err == nil {
			t.Errorf("ParseTagRecord(%q) accepted", bad)
		}
	}
}

// FuzzParseMetadata: whatever ParseMetadata accepts survives Encode → Parse
// unchanged, and names its manifest in the one form ParseDigest prints.
func FuzzParseMetadata(f *testing.F) {
	good, err := Metadata{Name: "model", Version: 3, Size: 10 << 20,
		Manifest: blob.DigestOf([]byte("m")).String(), Registry: "registry", Tracker: "tracker"}.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseMetadata(data)
		if err != nil {
			return
		}
		checkDigestField(t, m.Manifest)
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted %+v does not encode: %v", m, err)
		}
		if again, err := ParseMetadata(enc); err != nil || again != m {
			t.Fatalf("Encode → Parse: %+v, %v; want %+v", again, err, m)
		}
	})
}

// FuzzParseTagRecord: the same round trip for tag records, which cross the
// landing strip's promotion gate.
func FuzzParseTagRecord(f *testing.F) {
	good, err := TagRecord{Name: "ranker", Tag: "canary", Version: 2,
		Manifest: blob.DigestOf([]byte("m")).String()}.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ParseTagRecord(data)
		if err != nil {
			return
		}
		checkDigestField(t, rec.Manifest)
		enc, err := rec.Encode()
		if err != nil {
			t.Fatalf("accepted %+v does not encode: %v", rec, err)
		}
		if again, err := ParseTagRecord(enc); err != nil || again != rec {
			t.Fatalf("Encode → Parse: %+v, %v; want %+v", again, err, rec)
		}
	})
}

func checkDigestField(t *testing.T, field string) {
	t.Helper()
	d, err := blob.ParseDigest(field)
	if err != nil || d.String() != field {
		t.Fatalf("accepted manifest %q reads back as %s, %v", field, d, err)
	}
}

func TestPublishDedupAndConflict(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 1)
	reg := NewRegistry(net, "registry", simnet.Placement{}, "tracker")
	NewTracker(net, "tracker", simnet.Placement{})

	p1 := SyntheticPackage("model", 1, 16<<20, DefaultChunkSize, 7)
	if _, err := reg.Publish(p1); err != nil {
		t.Fatal(err)
	}
	if st := reg.LastPublish(); st.NewChunks != 16 || st.DedupChunks != 0 {
		t.Errorf("v1 stats %+v", st)
	}
	// A quarter of the chunks change; the rest dedup against v1.
	p2 := NextVersion(p1, 2, 0.25, 7)
	if _, err := reg.Publish(p2); err != nil {
		t.Fatal(err)
	}
	if st := reg.LastPublish(); st.NewChunks != 4 || st.DedupChunks != 12 {
		t.Errorf("v2 stats %+v (want 4 new, 12 dedup)", st)
	}
	// Idempotent republish of identical content.
	if _, err := reg.Publish(p2); err != nil {
		t.Errorf("idempotent republish failed: %v", err)
	}
	// Same version, different content: refused.
	conflict := SyntheticPackage("model", 2, 16<<20, DefaultChunkSize, 99)
	if _, err := reg.Publish(conflict); err == nil {
		t.Error("conflicting republish accepted")
	}
	// latest follows publish.
	if v, ok := reg.CurrentTag("model", "latest"); !ok || v != 2 {
		t.Errorf("latest = %d, %v", v, ok)
	}
}

func TestPromotionLifecycle(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 1)
	reg := NewRegistry(net, "registry", simnet.Placement{}, "tracker")
	NewTracker(net, "tracker", simnet.Placement{})
	p := SyntheticPackage("model", 1, 4<<20, DefaultChunkSize, 7)
	if _, err := reg.Publish(p); err != nil {
		t.Fatal(err)
	}

	// Unpublished version: refused.
	if _, err := reg.Promote("model", "canary", 9); err == nil {
		t.Error("promoted an unpublished version")
	}
	// Unknown tag: refused.
	if _, err := reg.Promote("model", "beta", 1); err == nil {
		t.Error("promoted to a tag outside the namespace")
	}
	// prod before canary: refused (staged rollout).
	if _, err := reg.Promote("model", "prod", 1); err == nil {
		t.Error("prod promotion skipped canary")
	}
	rec, err := reg.Promote("model", "canary", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A record with no digest binds no immutable content: refused.
	if err := reg.ApplyTag(TagRecord{Name: "model", Tag: "canary", Version: 1}); err == nil {
		t.Error("applied a tag record with no manifest digest")
	}
	if err := reg.ApplyTag(rec); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.CurrentTag("model", "canary"); !ok || v != 1 {
		t.Fatalf("canary = %d, %v", v, ok)
	}
	// Now prod is allowed.
	rec, err = reg.Promote("model", "prod", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.ApplyTag(rec); err != nil {
		t.Fatal(err)
	}
	if m, ok := reg.Resolve("model", "prod"); !ok || m.Version != 1 {
		t.Fatalf("prod resolves to %+v, %v", m, ok)
	}
}

func TestSingleAgentDownload(t *testing.T) {
	r := newSwarm(t, 1, 1, 1)
	meta := r.publish(t, "model", 1, 8<<20) // 8 MB
	var took time.Duration
	r.agents[0].OnComplete(func(_ blob.Manifest, d time.Duration, _ TransferStats) { took = d })
	r.agents[0].OnAnnounce(meta)
	r.net.RunFor(5 * time.Minute)
	if !r.agents[0].Complete("model", 1) {
		t.Fatal("download never completed")
	}
	if took <= 0 || took > time.Minute {
		t.Errorf("took = %v", took)
	}
	if r.agents[0].ChunksFromOrigin != 8 {
		t.Errorf("ChunksFromOrigin = %d, want 8", r.agents[0].ChunksFromOrigin)
	}
}

func TestSwarmAllComplete(t *testing.T) {
	r := newSwarm(t, 30, 3, 2)
	meta := r.publish(t, "model", 1, 16<<20)
	completed := 0
	for _, a := range r.agents {
		a.OnComplete(func(blob.Manifest, time.Duration, TransferStats) { completed++ })
		a.OnAnnounce(meta)
	}
	r.net.RunFor(10 * time.Minute)
	if completed != 30 {
		t.Fatalf("completed = %d of 30", completed)
	}
	// P2P must dominate: the registry served far fewer chunks than the
	// total demanded (30 agents x 16 chunks = 480).
	if r.registry.ChunksServed > 200 {
		t.Errorf("registry served %d chunks; P2P not offloading", r.registry.ChunksServed)
	}
	var fromPeers uint64
	for _, a := range r.agents {
		fromPeers += a.ChunksFromPeers
	}
	if fromPeers == 0 {
		t.Error("no peer-to-peer chunk exchange happened")
	}
}

func TestLocalityPreference(t *testing.T) {
	r := newSwarm(t, 40, 4, 3)
	meta := r.publish(t, "model", 1, 16<<20)
	for _, a := range r.agents {
		a.OnAnnounce(meta)
	}
	r.net.RunFor(10 * time.Minute)
	var sameCluster, total uint64
	for _, a := range r.agents {
		sameCluster += a.ChunksSameCluster
		total += a.ChunksSameCluster + a.ChunksSameRegion + a.ChunksCrossRegion
	}
	if total == 0 {
		t.Fatal("no chunks transferred")
	}
	// Same-cluster exchange must dominate (registry fetches count as
	// cross-region for eu agents, so allow some).
	if float64(sameCluster)/float64(total) < 0.5 {
		t.Errorf("same-cluster fraction = %.2f, want > 0.5 (locality-aware selection)",
			float64(sameCluster)/float64(total))
	}
}

func TestVersionConsistency(t *testing.T) {
	// 100 Mbit/s links: an 8 MB package takes > 670 ms per agent even
	// downlink-bound, so at 500 ms nobody has finished v1 yet.
	r := newSwarmBps(t, 10, 2, 4, 1.25e7)
	p1 := SyntheticPackage("model", 1, 8<<20, DefaultChunkSize, 42)
	m1, err := r.registry.Publish(p1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.agents {
		a.OnAnnounce(MetadataFor(m1, "registry", "tracker"))
	}
	// Let the swarm get partway, then publish v2: agents must abandon v1
	// and converge on v2 only.
	r.net.RunFor(500 * time.Millisecond)
	m2, err := r.registry.Publish(NextVersion(p1, 2, 0.5, 42))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.agents {
		a.OnAnnounce(MetadataFor(m2, "registry", "tracker"))
	}
	r.net.RunFor(10 * time.Minute)
	for i, a := range r.agents {
		if !a.Complete("model", 2) {
			t.Fatalf("agent %d did not converge on v2", i)
		}
		if a.Complete("model", 1) {
			t.Fatalf("agent %d reports completing the abandoned v1", i)
		}
	}
}

func TestCrossVersionDedup(t *testing.T) {
	r := newSwarm(t, 8, 2, 9)
	p1 := SyntheticPackage("model", 1, 16<<20, DefaultChunkSize, 42)
	m1, err := r.registry.Publish(p1)
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[int]TransferStats)
	for i, a := range r.agents {
		i := i
		a.OnComplete(func(_ blob.Manifest, _ time.Duration, st TransferStats) { last[i] = st })
		a.OnAnnounce(MetadataFor(m1, "registry", "tracker"))
	}
	r.net.RunFor(10 * time.Minute)
	for i, a := range r.agents {
		if !a.Complete("model", 1) {
			t.Fatalf("agent %d missing v1", i)
		}
	}

	// v2 rewrites a quarter of the chunks. Every agent already holds the
	// other 12 on disk: only the 4 changed digests cross the wire.
	m2, err := r.registry.Publish(NextVersion(p1, 2, 0.25, 42))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.agents {
		a.OnAnnounce(MetadataFor(m2, "registry", "tracker"))
	}
	r.net.RunFor(10 * time.Minute)
	for i, a := range r.agents {
		if !a.Complete("model", 2) {
			t.Fatalf("agent %d missing v2", i)
		}
		st := last[i]
		if st.ChunksFetched != 4 || st.ChunksDeduped != 12 {
			t.Errorf("agent %d: fetched %d, deduped %d (want 4 / 12)", i, st.ChunksFetched, st.ChunksDeduped)
		}
	}
}

func TestStaleMetadataIgnored(t *testing.T) {
	r := newSwarm(t, 1, 1, 5)
	metaV1 := r.publish(t, "model", 1, 4<<20)
	metaV2 := r.publish(t, "model", 2, 4<<20)
	a := r.agents[0]
	a.OnAnnounce(metaV2)
	r.net.RunFor(5 * time.Minute)
	if !a.Complete("model", 2) {
		t.Fatal("v2 not downloaded")
	}
	// An old metadata version arriving late must not restart anything.
	a.OnAnnounce(metaV1)
	r.net.RunFor(time.Minute)
	if !a.Complete("model", 2) {
		t.Fatal("stale metadata clobbered the newer version")
	}
}

func TestPeerFailureMidSwarm(t *testing.T) {
	r := newSwarm(t, 12, 2, 6)
	meta := r.publish(t, "model", 1, 8<<20)
	for _, a := range r.agents {
		a.OnAnnounce(meta)
	}
	r.net.RunFor(3 * time.Second)
	// Kill a quarter of the agents mid-download.
	for i := 0; i < 3; i++ {
		r.net.Fail(simnet.NodeID(fmt.Sprintf("srv-%d", i)))
	}
	r.net.RunFor(15 * time.Minute)
	for i := 3; i < 12; i++ {
		if !r.agents[i].Complete("model", 1) {
			t.Fatalf("surviving agent %d never completed", i)
		}
	}
}

func TestFourMinuteClaim(t *testing.T) {
	// §3.5: "PackageVessel consistently and reliably delivers the large
	// configs to the live servers in less than four minutes" — hundreds of
	// MBs to a fleet. Scaled-down check: 64 MB to 60 servers over 1 Gbit/s
	// links must finish well under four minutes.
	if testing.Short() {
		t.Skip("swarm simulation")
	}
	r := newSwarm(t, 60, 4, 7)
	meta := r.publish(t, "model", 1, 64<<20)
	var worst time.Duration
	completed := 0
	for _, a := range r.agents {
		a.OnComplete(func(_ blob.Manifest, d time.Duration, _ TransferStats) {
			completed++
			if d > worst {
				worst = d
			}
		})
		a.OnAnnounce(meta)
	}
	r.net.RunFor(10 * time.Minute)
	if completed != 60 {
		t.Fatalf("completed = %d of 60", completed)
	}
	if worst > 4*time.Minute {
		t.Errorf("slowest server took %v, want < 4m", worst)
	}
}

func TestCentralOnlySlowerThanP2P(t *testing.T) {
	run := func(p2p bool) time.Duration {
		r := newSwarm(t, 24, 2, 8)
		p := SyntheticPackage("model", 1, 32<<20, DefaultChunkSize, 42)
		m, err := r.registry.Publish(p)
		if err != nil {
			t.Fatal(err)
		}
		var worst time.Duration
		completed := 0
		for _, a := range r.agents {
			a.OnComplete(func(_ blob.Manifest, d time.Duration, _ TransferStats) {
				completed++
				if d > worst {
					worst = d
				}
			})
			if p2p {
				a.OnAnnounce(MetadataFor(m, "registry", "tracker"))
			} else {
				a.OnAnnounce(MetadataFor(m, "registry", ""))
			}
		}
		r.net.RunFor(2 * time.Hour)
		if completed != 24 {
			t.Fatalf("completed = %d of 24 (p2p=%v)", completed, p2p)
		}
		return worst
	}
	p2p := run(true)
	central := run(false)
	if central <= p2p {
		t.Errorf("central (%v) should be slower than p2p (%v): registry uplink is the bottleneck",
			central, p2p)
	}
}

// TestTrackerlessTransferUsesOrigin: metadata that names no tracker has one
// holder, the registry. Every chunk comes from it, no peer or tracker is
// asked, and the fetches are paced by the same window and per-peer cap as a
// swarm's.
func TestTrackerlessTransferUsesOrigin(t *testing.T) {
	const chunks = 24
	r := newSwarm(t, 3, 1, 9)
	m, err := r.registry.Publish(SyntheticPackage("model", 1, chunks<<20, DefaultChunkSize, 42))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.agents {
		a.OnAnnounce(MetadataFor(m, "registry", ""))
	}
	peak := 0
	for deadline := r.net.Now().Add(time.Minute); r.net.Now().Before(deadline) && r.net.Step(); {
		for _, a := range r.agents {
			if a.inflightTotal > fetchWindow || a.perPeer["registry"] > perPeerInflight || a.inflightTotal != a.perPeer["registry"] {
				t.Fatalf("%s: %d in flight, %d of them to the registry (window %d, per-peer cap %d)",
					a.id, a.inflightTotal, a.perPeer["registry"], fetchWindow, perPeerInflight)
			}
			peak = max(peak, a.inflightTotal)
		}
	}
	if peak != perPeerInflight {
		t.Errorf("peak in-flight fetches = %d, want the per-peer cap %d", peak, perPeerInflight)
	}
	for _, a := range r.agents {
		if !a.Complete("model", 1) {
			t.Fatalf("%s never completed", a.id)
		}
		if a.ChunksFromOrigin != chunks || a.ChunksFromPeers != 0 || a.ChunksServed != 0 {
			t.Errorf("%s: %d chunks from origin, %d from peers, %d served; want %d, 0, 0",
				a.id, a.ChunksFromOrigin, a.ChunksFromPeers, a.ChunksServed, chunks)
		}
	}
	if r.registry.ChunksServed != 3*chunks {
		t.Errorf("registry served %d chunks, want %d", r.registry.ChunksServed, 3*chunks)
	}
	if r.tracker.Wants != 0 {
		t.Errorf("tracker answered %d wants, want 0", r.tracker.Wants)
	}
}
