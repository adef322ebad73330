// Large-config distribution via the content-addressed PackageVessel: a
// 192 MB News-Feed ranking model is published into the digest-keyed
// registry, its small metadata is announced through the (simulated)
// Configerator subscription path, and a 48-server fleet swarms the bulk
// content peer-to-peer with locality-aware peer selection. Then v2 — a
// 12.5% delta — is published: only the changed chunks cross the wire, and
// the version is promoted latest -> canary -> prod through the tag
// namespace. Compare against every server fetching from central storage.
//
//	go run ./examples/largeconfig
package main

import (
	"fmt"
	"time"

	"configerator/internal/packagevessel"
	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

const gbit = 1.25e8 // 1 Gbit/s in bytes/sec

func buildFleet(seed uint64) (*simnet.Network, *packagevessel.Registry, []*packagevessel.Agent) {
	net := simnet.New(simnet.DefaultLatency(), seed)
	registry := packagevessel.NewRegistry(net, "registry", simnet.Placement{Region: "us", Cluster: "store"}, "tracker")
	net.SetBandwidth("registry", gbit, gbit)
	packagevessel.NewTracker(net, "tracker", simnet.Placement{Region: "us", Cluster: "store"})
	var agents []*packagevessel.Agent
	for i := 0; i < 48; i++ {
		cluster := fmt.Sprintf("c%d", i%4)
		region := "us"
		if i%4 >= 2 {
			region = "eu"
		}
		id := simnet.NodeID(fmt.Sprintf("srv-%d", i))
		a := packagevessel.NewAgent(net, id, simnet.Placement{Region: region, Cluster: cluster}, packagevessel.Options{})
		net.SetBandwidth(id, gbit, gbit)
		agents = append(agents, a)
	}
	return net, registry, agents
}

// deliver publishes (or re-announces) a manifest to the whole fleet and
// reports completion spread and transfer accounting.
func deliver(net *simnet.Network, registry *packagevessel.Registry, agents []*packagevessel.Agent,
	m blob.Manifest, p2p bool) {
	var first, last time.Duration
	var fetched, deduped int
	done := 0
	// Metadata that names no tracker leaves the registry as the only
	// holder: the central-only baseline.
	tracker := registry.Tracker()
	if !p2p {
		tracker = ""
	}
	meta := packagevessel.MetadataFor(m, registry.ID(), tracker)
	for _, a := range agents {
		a.OnComplete(func(_ blob.Manifest, took time.Duration, st packagevessel.TransferStats) {
			done++
			fetched += st.ChunksFetched
			deduped += st.ChunksDeduped
			if first == 0 || took < first {
				first = took
			}
			if took > last {
				last = took
			}
		})
		// In production the metadata arrives via the server's Configerator
		// proxy subscription; here we hand it over directly.
		a.OnAnnounce(meta)
	}
	net.RunFor(time.Hour)

	mode := "P2P swarm"
	if !p2p {
		mode = "central-only"
	}
	fmt.Printf("%-12s: %d/%d servers complete; fastest %v, slowest %v; registry served %d chunks\n",
		mode, done, len(agents), first.Round(time.Millisecond), last.Round(time.Millisecond),
		registry.ChunksServed)
	if p2p {
		var same, region, cross uint64
		for _, a := range agents {
			same += a.ChunksSameCluster
			region += a.ChunksSameRegion
			cross += a.ChunksCrossRegion
		}
		total := same + region + cross
		fmt.Printf("              chunk locality: %.0f%% same-cluster, %.0f%% same-region, %.0f%% cross-region\n",
			100*float64(same)/float64(total), 100*float64(region)/float64(total),
			100*float64(cross)/float64(total))
		fmt.Printf("              fleet fetched %d chunks, deduped %d against local stores\n", fetched, deduped)
		if last < 4*time.Minute {
			fmt.Println("              ✓ under the paper's four-minute delivery bound (§3.5)")
		}
	}
}

func main() {
	fmt.Println("distributing a 192 MB model to 48 servers over 1 Gbit/s links:")

	// P2P delivery of v1.
	net, registry, agents := buildFleet(3)
	v1 := packagevessel.SyntheticPackage("feed-ranker-model", 1, 192<<20, packagevessel.DefaultChunkSize, 3)
	m1, err := registry.Publish(v1)
	if err != nil {
		panic(err)
	}
	deliver(net, registry, agents, m1, true)

	// v2 rewrites 12.5% of the chunks. Content addressing means the
	// registry stores — and the fleet transfers — only the delta.
	m2, err := registry.Publish(packagevessel.NextVersion(v1, 2, 0.125, 3))
	if err != nil {
		panic(err)
	}
	st := registry.LastPublish()
	fmt.Printf("\npublishing v2 (12.5%% delta): %d new chunks, %d deduped (%.0f MB saved at the registry)\n",
		st.NewChunks, st.DedupChunks, float64(st.DedupBytes)/(1<<20))
	deliver(net, registry, agents, m2, true)

	// Promotion: tags move through explicit, validated metadata writes.
	for _, tag := range []string{"canary", "prod"} {
		rec, err := registry.Promote("feed-ranker-model", tag, 2)
		if err != nil {
			panic(err)
		}
		if err := registry.ApplyTag(rec); err != nil {
			panic(err)
		}
	}
	fmt.Printf("tags after rollout: %v\n\n", registry.Tags("feed-ranker-model"))

	// Ablation: same fleet, no swarm.
	net, registry, agents = buildFleet(3)
	m1, err = registry.Publish(packagevessel.SyntheticPackage("feed-ranker-model", 1, 192<<20, packagevessel.DefaultChunkSize, 3))
	if err != nil {
		panic(err)
	}
	deliver(net, registry, agents, m1, false)
}
