package packagevessel_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/confclient"
	"configerator/internal/core"
	pv "configerator/internal/packagevessel"
	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// TestMetadataThroughConfigerator wires the full hybrid subscription-P2P
// model of §3.5: the package metadata is a small config landed through the
// pipeline, distributed by Zeus to every server's proxy, and each server's
// subscription callback hands it to the local PackageVessel agent, which
// then swarms the bulk content. Publishing a new model version is nothing
// but another config change — and with content addressing, v2 moves only
// its changed chunks.
func TestMetadataThroughConfigerator(t *testing.T) {
	fleet := cluster.New(cluster.SmallConfig(6, 77)) // 24 servers
	fleet.Net.RunFor(10 * time.Second)
	p := core.New(core.Options{Fleet: fleet})

	// Registry + tracker live beside the fleet.
	registry := pv.NewRegistry(fleet.Net, "pv-registry", simnet.Placement{Region: "us-west", Cluster: "store"}, "pv-tracker")
	fleet.Net.SetBandwidth("pv-registry", 1.25e8, 1.25e8)
	pv.NewTracker(fleet.Net, "pv-tracker", simnet.Placement{Region: "us-west", Cluster: "store"})

	const metaPath = "models/ranker.meta.json"
	zpath := core.ZeusPath(metaPath)
	fleet.SubscribeAll(zpath)

	// One PackageVessel agent per server, fed by the server's proxy
	// subscription to the metadata config.
	completed := 0
	var agents []*pv.Agent
	for i, srv := range fleet.AllServers() {
		id := simnet.NodeID(fmt.Sprintf("pv-agent-%d", i))
		agent := pv.NewAgent(fleet.Net, id, srv.Placement, pv.Options{})
		fleet.Net.SetBandwidth(id, 1.25e8, 1.25e8)
		agent.OnComplete(func(blob.Manifest, time.Duration, pv.TransferStats) { completed++ })
		a := agent
		srv.Client.Watch(context.Background(), zpath, func(cfg *confclient.Value) {
			if md, err := pv.ParseMetadata(cfg.Raw); err == nil {
				a.OnAnnounce(md)
			}
		})
		agents = append(agents, agent)
	}

	publish := func(pkg pv.Package) {
		m, err := registry.Publish(pkg)
		if err != nil {
			t.Fatalf("publish %s@%d: %v", pkg.Name, pkg.Version, err)
		}
		data, err := pv.MetadataFor(m, registry.ID(), registry.Tracker()).Encode()
		if err != nil {
			t.Fatal(err)
		}
		rep := p.Submit(&core.ChangeRequest{
			Author: "model-publisher", Reviewer: "oncall",
			Title:      fmt.Sprintf("publish ranker v%d", pkg.Version),
			Raws:       map[string][]byte{metaPath: data},
			SkipCanary: true,
		})
		if !rep.OK() {
			t.Fatalf("publish v%d blocked: %v", pkg.Version, rep.Err)
		}
	}

	v1 := pv.SyntheticPackage("ranker", 1, 24<<20, pv.DefaultChunkSize, 7)
	publish(v1)
	fleet.Net.RunFor(3 * time.Minute)
	if completed != len(agents) {
		t.Fatalf("v1: %d of %d agents complete", completed, len(agents))
	}
	for i, a := range agents {
		if !a.Complete("ranker", 1) {
			t.Fatalf("agent %d missing v1", i)
		}
	}

	// A new version is just another config change; every server converges,
	// fetching only the changed chunks.
	completed = 0
	publish(pv.NextVersion(v1, 2, 0.25, 7))
	fleet.Net.RunFor(3 * time.Minute)
	if completed != len(agents) {
		t.Fatalf("v2: %d of %d agents complete", completed, len(agents))
	}
	for i, a := range agents {
		if !a.Complete("ranker", 2) {
			t.Fatalf("agent %d missing v2", i)
		}
	}
}
