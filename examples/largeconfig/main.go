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
)

// report swarms a manifest to the whole fleet and prints the completion
// spread and transfer accounting. With p2p false the metadata names no
// tracker, which leaves the registry as the only holder: the central-only
// baseline.
func report(s *packagevessel.Swarm, m blob.Manifest, p2p bool) {
	tracker, mode := s.Tracker.ID(), "P2P swarm"
	if !p2p {
		tracker, mode = "", "central-only"
	}
	// In production the metadata arrives via each server's Configerator
	// proxy subscription; here Deliver hands it over directly.
	done := s.Deliver(m, tracker, time.Hour)
	var first, last time.Duration
	var fetched, deduped int
	for i, d := range done {
		if i == 0 || d.Took < first {
			first = d.Took
		}
		last = max(last, d.Took)
		fetched += d.Stats.ChunksFetched
		deduped += d.Stats.ChunksDeduped
	}
	fmt.Printf("%-12s: %d/%d servers complete; fastest %v, slowest %v; registry served %d chunks\n",
		mode, len(done), len(s.Agents), first.Round(time.Millisecond), last.Round(time.Millisecond),
		s.Registry.ChunksServed)
	if p2p {
		var same, region, cross uint64
		for _, a := range s.Agents {
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

	// P2P delivery of v1 to 48 servers in four clusters across two regions.
	s := packagevessel.NewSwarm(3, 48, 4)
	v1 := packagevessel.SyntheticPackage("feed-ranker-model", 1, 192<<20, packagevessel.DefaultChunkSize, 3)
	m1, err := s.Registry.Publish(v1)
	if err != nil {
		panic(err)
	}
	report(s, m1, true)

	// v2 rewrites 12.5% of the chunks. Content addressing means the
	// registry stores — and the fleet transfers — only the delta.
	m2, err := s.Registry.Publish(packagevessel.NextVersion(v1, 2, 0.125, 3))
	if err != nil {
		panic(err)
	}
	st := s.Registry.LastPublish()
	fmt.Printf("\npublishing v2 (12.5%% delta): %d new chunks, %d deduped (%.0f MB saved at the registry)\n",
		st.NewChunks, st.DedupChunks, float64(st.DedupBytes)/(1<<20))
	report(s, m2, true)

	// Promotion: tags move through explicit, validated metadata writes.
	for _, tag := range []string{"canary", "prod"} {
		rec, err := s.Registry.Promote("feed-ranker-model", tag, 2)
		if err != nil {
			panic(err)
		}
		if err := s.Registry.ApplyTag(rec); err != nil {
			panic(err)
		}
	}
	fmt.Printf("tags after rollout: %v\n\n", s.Registry.Tags("feed-ranker-model"))

	// Ablation: same fleet, no swarm.
	s = packagevessel.NewSwarm(3, 48, 4)
	m1, err = s.Registry.Publish(v1)
	if err != nil {
		panic(err)
	}
	report(s, m1, false)
}
