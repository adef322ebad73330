package packagevessel

import (
	"fmt"
	"testing"
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// model is the package the swarm tests deliver: size bytes in 1 MiB chunks.
func model(version int64, size int) Package {
	return SyntheticPackage("model", version, size, DefaultChunkSize, 42)
}

// publish registers a package with the swarm's registry.
func publish(t *testing.T, s *Swarm, pkg Package) blob.Manifest {
	t.Helper()
	m, err := s.Registry.Publish(pkg)
	if err != nil {
		t.Fatalf("publish %s@%d: %v", pkg.Name, pkg.Version, err)
	}
	return m
}

// throttle slows the registry's and every agent's links to bps, so a
// transfer lasts long enough for a fault to land in the middle of it.
func throttle(s *Swarm, bps float64) {
	s.Net.SetBandwidth(s.Registry.ID(), bps, bps)
	for _, a := range s.Agents {
		s.Net.SetBandwidth(a.id, bps, bps)
	}
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
	reg := NewSwarm(1, 0, 1).Registry
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

// TestPublishRefusesUnparseableManifest: a name that is not valid UTF-8
// encodes with \ufffd in place of its bad bytes, so no agent could parse the
// manifest back. The registry refuses it at publish, not agents at delivery.
func TestPublishRefusesUnparseableManifest(t *testing.T) {
	reg := NewSwarm(1, 0, 1).Registry
	p := SyntheticPackage("mod\xffel", 1, 4<<20, DefaultChunkSize, 7)
	if _, err := blob.ParseManifest(p.Manifest().Encode()); err == nil {
		t.Fatal("the manifest parses; the case is moot")
	}
	if m, err := reg.Publish(p); err == nil {
		t.Errorf("published %s, which no agent can parse", m.Key())
	}
	if _, ok := reg.CurrentTag(p.Name, "latest"); ok {
		t.Error("latest names the refused package")
	}
}

func TestPromotionLifecycle(t *testing.T) {
	reg := NewSwarm(1, 0, 1).Registry
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
	if tags := reg.Tags("model"); tags["prod"] != 1 || tags["canary"] != 1 {
		t.Fatalf("tags = %v", tags)
	}
}

func TestSingleAgentDownload(t *testing.T) {
	r := NewSwarm(1, 1, 1)
	done := r.Deliver(publish(t, r, model(1, 8<<20)), "tracker", 5*time.Minute) // 8 MB
	if len(done) != 1 {
		t.Fatal("download never completed")
	}
	if took := done[0].Took; took <= 0 || took > time.Minute {
		t.Errorf("took = %v", took)
	}
	if r.Agents[0].ChunksFromOrigin != 8 {
		t.Errorf("ChunksFromOrigin = %d, want 8", r.Agents[0].ChunksFromOrigin)
	}
}

func TestSwarmAllComplete(t *testing.T) {
	r := NewSwarm(2, 30, 3)
	done := r.Deliver(publish(t, r, model(1, 16<<20)), "tracker", 10*time.Minute)
	if len(done) != 30 {
		t.Fatalf("completed = %d of 30", len(done))
	}
	// P2P must dominate: the registry served far fewer chunks than the
	// total demanded (30 agents x 16 chunks = 480).
	if r.Registry.ChunksServed > 200 {
		t.Errorf("registry served %d chunks; P2P not offloading", r.Registry.ChunksServed)
	}
	var fromPeers uint64
	for _, a := range r.Agents {
		fromPeers += a.ChunksFromPeers
	}
	if fromPeers == 0 {
		t.Error("no peer-to-peer chunk exchange happened")
	}
}

func TestLocalityPreference(t *testing.T) {
	r := NewSwarm(3, 40, 4)
	r.Deliver(publish(t, r, model(1, 16<<20)), "tracker", 10*time.Minute)
	var sameCluster, total uint64
	for _, a := range r.Agents {
		sameCluster += a.ChunksSameCluster
		total += a.ChunksSameCluster + a.ChunksSameRegion + a.ChunksCrossRegion
	}
	if total == 0 {
		t.Fatal("no chunks transferred")
	}
	// Same-cluster exchange must dominate (registry fetches count as
	// cross-region for eu agents, so allow some).
	if frac := float64(sameCluster) / float64(total); frac < 0.5 {
		t.Errorf("same-cluster fraction = %.2f, want > 0.5 (locality-aware selection)", frac)
	}
}

func TestVersionConsistency(t *testing.T) {
	// 100 Mbit/s links: an 8 MB package takes > 670 ms per agent even
	// downlink-bound, so at 500 ms nobody has finished v1 yet.
	r := NewSwarm(4, 10, 2)
	throttle(r, 1.25e7)
	p1 := model(1, 8<<20)
	m1 := publish(t, r, p1)
	for _, a := range r.Agents {
		a.OnAnnounce(MetadataFor(m1, "registry", "tracker"))
	}
	// Let the swarm get partway, then publish v2: agents must abandon v1
	// and converge on v2 only.
	r.Net.RunFor(500 * time.Millisecond)
	m2 := publish(t, r, NextVersion(p1, 2, 0.5, 42))
	r.Deliver(m2, "tracker", 10*time.Minute)
	for i, a := range r.Agents {
		if !a.Complete("model", 2) {
			t.Fatalf("agent %d did not converge on v2", i)
		}
		if a.Complete("model", 1) {
			t.Fatalf("agent %d reports completing the abandoned v1", i)
		}
	}
}

func TestCrossVersionDedup(t *testing.T) {
	r := NewSwarm(9, 8, 2)
	p1 := model(1, 16<<20)
	m1 := publish(t, r, p1)
	if done := r.Deliver(m1, "tracker", 10*time.Minute); len(done) != 8 {
		t.Fatalf("%d of 8 agents hold v1", len(done))
	}

	// v2 rewrites a quarter of the chunks. Every agent already holds the
	// other 12 on disk: only the 4 changed digests cross the wire.
	m2 := publish(t, r, NextVersion(p1, 2, 0.25, 42))
	done := r.Deliver(m2, "tracker", 10*time.Minute)
	if len(done) != 8 {
		t.Fatalf("%d of 8 agents hold v2", len(done))
	}
	for _, d := range done {
		if st := d.Stats; st.ChunksFetched != 4 || st.ChunksDeduped != 12 {
			t.Errorf("%s: fetched %d, deduped %d (want 4 / 12)", d.Agent.id, st.ChunksFetched, st.ChunksDeduped)
		}
	}
}

func TestStaleMetadataIgnored(t *testing.T) {
	r := NewSwarm(5, 1, 1)
	m1 := publish(t, r, model(1, 4<<20))
	if done := r.Deliver(publish(t, r, model(2, 4<<20)), "tracker", 5*time.Minute); len(done) != 1 {
		t.Fatal("v2 not downloaded")
	}
	// An old metadata version arriving late must not restart anything.
	a := r.Agents[0]
	a.OnAnnounce(MetadataFor(m1, "registry", "tracker"))
	r.Net.RunFor(time.Minute)
	if !a.Complete("model", 2) {
		t.Fatal("stale metadata clobbered the newer version")
	}
}

func TestPeerFailureMidSwarm(t *testing.T) {
	r := NewSwarm(6, 12, 2)
	// Kill a quarter of the agents mid-download; the rest still complete.
	r.Net.After(3*time.Second, func() {
		for _, a := range r.Agents[:3] {
			r.Net.Fail(a.id)
		}
	})
	r.Deliver(publish(t, r, model(1, 8<<20)), "tracker", 15*time.Minute)
	for _, a := range r.Agents[3:] {
		if !a.Complete("model", 1) {
			t.Fatalf("surviving agent %s never completed", a.id)
		}
	}
}

func TestFourMinuteClaim(t *testing.T) {
	// §3.5: "PackageVessel consistently and reliably delivers the large
	// configs to the live servers in less than four minutes" — hundreds of
	// MBs to a fleet. Scaled-down check: 64 MB to 60 servers over 1 Gbit/s
	// links must finish well under four minutes.
	r := NewSwarm(7, 60, 4)
	done := r.Deliver(publish(t, r, model(1, 64<<20)), "tracker", 10*time.Minute)
	if len(done) != 60 {
		t.Fatalf("completed = %d of 60", len(done))
	}
	var worst time.Duration
	for _, d := range done {
		if d.Took > worst {
			worst = d.Took
		}
	}
	if worst > 4*time.Minute {
		t.Errorf("slowest server took %v, want < 4m", worst)
	}
}

func TestCentralOnlySlowerThanP2P(t *testing.T) {
	// Metadata naming no tracker leaves the registry as the only holder, and
	// its uplink the bottleneck.
	var last []time.Duration
	for _, tracker := range []simnet.NodeID{"tracker", ""} {
		r := NewSwarm(8, 24, 2)
		done := r.Deliver(publish(t, r, model(1, 32<<20)), tracker, 2*time.Hour)
		if len(done) != 24 {
			t.Fatalf("completed = %d of 24 (tracker %q)", len(done), tracker)
		}
		last = append(last, done[23].Took)
	}
	if last[1] <= last[0] {
		t.Errorf("the last agent took %v central-only, %v through the swarm; want central slower", last[1], last[0])
	}
}

// TestTrackerlessTransferUsesOrigin: metadata that names no tracker has one
// holder, the registry. Every chunk comes from it, no peer or tracker is
// asked, and the fetches are paced by the same window and per-peer cap as a
// swarm's.
func TestTrackerlessTransferUsesOrigin(t *testing.T) {
	const chunks = 24
	r := NewSwarm(9, 3, 1)
	m := publish(t, r, model(1, chunks<<20))
	for _, a := range r.Agents {
		a.OnAnnounce(MetadataFor(m, "registry", ""))
	}
	peak := 0
	for deadline := r.Net.Now().Add(time.Minute); r.Net.Now().Before(deadline) && r.Net.Step(); {
		for _, a := range r.Agents {
			checkAgent(t, a)
			peak = max(peak, len(a.inflight))
		}
	}
	if peak != perPeerInflight {
		t.Errorf("peak in-flight fetches = %d, want the per-peer cap %d", peak, perPeerInflight)
	}
	for _, a := range r.Agents {
		if !a.Complete("model", 1) {
			t.Fatalf("%s never completed", a.id)
		}
		if a.ChunksFromOrigin != chunks || a.ChunksFromPeers != 0 || a.ChunksServed != 0 {
			t.Errorf("%s: %d chunks from origin, %d from peers, %d served; want %d, 0, 0",
				a.id, a.ChunksFromOrigin, a.ChunksFromPeers, a.ChunksServed, chunks)
		}
	}
	if r.Registry.ChunksServed != 3*chunks {
		t.Errorf("registry served %d chunks, want %d", r.Registry.ChunksServed, 3*chunks)
	}
	if r.Tracker.Wants != 0 {
		t.Errorf("tracker answered %d wants, want 0", r.Tracker.Wants)
	}
}

// TestPerPeerTableEmptiesAfterDelivery: an agent counts in-flight fetches
// per peer only while some are in flight. After a whole delivery on the
// benchmark's layout every agent's table is empty — a table that kept a
// zeroed entry for every peer it ever fetched from held 29,450 of them here.
func TestPerPeerTableEmptiesAfterDelivery(t *testing.T) {
	const chunk = 8 << 20
	s := NewSwarm(42, 2000, 8)
	s.Tracker.SetHolderBudget(HolderBudgetFor(SwarmBps, chunk))
	m := publish(t, s, SyntheticPackage("model", 1, 16*chunk, chunk, 42))
	if done := s.Deliver(m, s.Tracker.ID(), time.Hour); len(done) != len(s.Agents) {
		t.Fatalf("%d of %d agents completed", len(done), len(s.Agents))
	}
	left := 0
	for _, a := range s.Agents {
		left += len(a.perPeer)
	}
	if left != 0 {
		t.Errorf("after the delivery the agents' per-peer tables hold %d entries, want 0", left)
	}
}

// newAgentAllocs is what NewAgent costs: the Agent and its Store. The
// network's node table and index grow too, amortised over many agents to
// less than one allocation each.
const newAgentAllocs = 2

// TestNewAgentAllocs: an agent that has fetched nothing holds no maps.
func TestNewAgentAllocs(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 1)
	p := simnet.Placement{Region: "us", Cluster: "c0"}
	const runs = 1000
	ids := make([]simnet.NodeID, runs+1)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("srv-%d", i))
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		NewAgent(net, ids[i], p, Options{})
		i++
	})
	if allocs > newAgentAllocs {
		t.Errorf("NewAgent allocates %.1f times, want at most %d", allocs, newAgentAllocs)
	}
}

// TestSwarmIsBenchLayout: NewSwarm(seed, 2000, 8) is node for node the fleet
// the benchmark's vessel_swarm workload lays out by hand — ids, placements
// and link speeds — so that workload can build on it with its fingerprint
// unchanged.
func TestSwarmIsBenchLayout(t *testing.T) {
	const agents, clusters = 2000, 8
	s := NewSwarm(42, agents, clusters)
	store := simnet.Placement{Region: "us", Cluster: "store"}
	want := map[simnet.NodeID]simnet.Placement{"registry": store, "tracker": store}
	for i, a := range s.Agents {
		p := simnet.Placement{Region: "us", Cluster: fmt.Sprintf("c%d", i%clusters)}
		if i%clusters >= clusters/2 {
			p.Region = "eu"
		}
		if a.id != simnet.NodeID(fmt.Sprintf("srv-%d", i)) {
			t.Fatalf("agent %d is %s", i, a.id)
		}
		want[a.id] = p
	}
	ids := s.Net.NodeIDs()
	if len(s.Agents) != agents || len(ids) != len(want) {
		t.Fatalf("%d agents and %d nodes, want %d and %d", len(s.Agents), len(ids), agents, len(want))
	}

	// Link speeds are measured one node at a time: a probe with unbounded
	// links exchanges a size-byte message with the node, up (node → probe)
	// and down (a chunk or grant request the node answers with an empty
	// reply). Each takes size/bps plus decode, on top of at most two hops.
	const size = 1 << 30
	decode := time.Duration(float64(simnet.DefaultLatency().SerializePerKB) * size / 1024)
	var arrived time.Time
	s.Net.AddNode("probe", store, simnet.HandlerFunc(func(ctx *simnet.Context, _ simnet.NodeID, _ simnet.Message) {
		arrived = ctx.Now()
	}))
	s.Net.SetBandwidth("probe", 1e18, 1e18)
	for _, id := range ids {
		if got := s.Net.Placement(id); got != want[id] {
			t.Errorf("%s at %+v, want %+v", id, got, want[id])
		}
		bps, req := SwarmBps, simnet.Message(msgGetChunk{})
		if id == "tracker" {
			bps, req = simnet.DefaultBandwidth, msgWant{Need: []blob.Digest{0}, Max: 1}
		}
		for _, hop := range [][2]simnet.NodeID{{id, "probe"}, {"probe", id}} {
			start := s.Net.Now()
			arrived = time.Time{}
			s.Net.SendSized(hop[0], hop[1], req, size)
			for arrived.IsZero() && s.Net.Now().Sub(start) < time.Minute && s.Net.Step() {
			}
			took := arrived.Sub(start)
			if over := took - time.Duration(size/bps*float64(time.Second)) - decode; over < 0 || over > 200*time.Millisecond {
				t.Errorf("%s → %s: %v for %d bytes, off %s's %.3g B/s", hop[0], hop[1], took, size, id, bps)
			}
		}
	}
}
