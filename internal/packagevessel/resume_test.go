package packagevessel

import (
	"fmt"
	"testing"
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// TestResumeAfterCrash is the journal's reason to exist: an agent killed
// mid-download restarts, re-verifies what the journal says is on disk,
// and fetches ONLY the digests that are still missing — no re-download of
// verified chunks.
func TestResumeAfterCrash(t *testing.T) {
	const (
		agents    = 12
		sizeBytes = 64 << 20 // 64 chunks
		chunks    = 64
		slowBps   = 1.25e7 // 100 Mbit/s: the transfer takes several seconds
	)
	net := simnet.New(simnet.DefaultLatency(), 11)
	registry := NewRegistry(net, "registry", simnet.Placement{Region: "us", Cluster: "store"}, "tracker")
	net.SetBandwidth("registry", slowBps, slowBps)
	NewTracker(net, "tracker", simnet.Placement{Region: "us", Cluster: "store"})

	var fleet []*Agent
	for i := 0; i < agents; i++ {
		id := simnet.NodeID(fmt.Sprintf("srv-%d", i))
		a := NewAgent(net, id, simnet.Placement{Region: "us", Cluster: "c0"}, Options{})
		net.SetBandwidth(id, slowBps, slowBps)
		fleet = append(fleet, a)
	}
	victim := fleet[0]

	m, err := registry.Publish(SyntheticPackage("model", 1, sizeBytes, DefaultChunkSize, 42))
	if err != nil {
		t.Fatal(err)
	}
	var final TransferStats
	victim.OnComplete(func(_ blob.Manifest, _ time.Duration, st TransferStats) { final = st })
	for _, a := range fleet {
		a.OnAnnounce(MetadataFor(m, "registry", "tracker"))
	}

	// Kill the victim mid-download, restart it later. The crash wipes all
	// in-memory swarm state; the store (its disk) survives.
	plan := simnet.NewFaultPlan(
		simnet.WithCrash(2*time.Second, victim.id),
		simnet.WithRestart(20*time.Second, victim.id),
	)
	plan.Apply(net)
	net.RunFor(10 * time.Minute)

	if plan.Fired() != 2 {
		t.Fatalf("fault plan fired %d of 2 events", plan.Fired())
	}
	if !victim.Complete("model", 1) {
		t.Fatal("victim never completed after restart")
	}
	if !final.Resumed {
		t.Fatal("final transfer does not report resuming from the journal")
	}
	// The crash must land mid-transfer for the test to mean anything.
	if final.ResumeVerified <= 0 || final.ResumeVerified >= chunks {
		t.Fatalf("ResumeVerified = %d, want mid-transfer (0 < n < %d)", final.ResumeVerified, chunks)
	}
	// Only the missing digests crossed the wire after restart.
	if final.ChunksFetched != chunks-final.ResumeVerified {
		t.Errorf("post-restart fetched %d, want %d (= %d missing)",
			final.ChunksFetched, chunks-final.ResumeVerified, chunks-final.ResumeVerified)
	}
	// Across both lives the victim fetched each chunk exactly once.
	if victim.ChunksFetched != chunks {
		t.Errorf("lifetime ChunksFetched = %d, want %d (verified chunks re-downloaded?)",
			victim.ChunksFetched, chunks)
	}
	if victim.ResumeVerified != uint64(final.ResumeVerified) {
		t.Errorf("agent ResumeVerified counter = %d, stats say %d", victim.ResumeVerified, final.ResumeVerified)
	}

	// The rest of the fleet was undisturbed.
	for i, a := range fleet[1:] {
		if !a.Complete("model", 1) {
			t.Fatalf("bystander %d never completed", i+1)
		}
	}
}

// TestResumeAfterDiskLoss: chunks lost from disk while the node was down
// fail the restart verification pass and are fetched again — the journal
// trusts the disk only as far as re-verification confirms it.
func TestResumeAfterDiskLoss(t *testing.T) {
	const slowBps = 1.25e7
	net := simnet.New(simnet.DefaultLatency(), 12)
	registry := NewRegistry(net, "registry", simnet.Placement{Region: "us", Cluster: "store"}, "tracker")
	net.SetBandwidth("registry", slowBps, slowBps)
	NewTracker(net, "tracker", simnet.Placement{Region: "us", Cluster: "store"})
	a := NewAgent(net, "srv-0", simnet.Placement{Region: "us", Cluster: "c0"}, Options{})
	net.SetBandwidth("srv-0", slowBps, slowBps)

	m, err := registry.Publish(SyntheticPackage("model", 1, 64<<20, DefaultChunkSize, 42))
	if err != nil {
		t.Fatal(err)
	}
	a.OnAnnounce(MetadataFor(m, "registry", "tracker"))

	plan := simnet.NewFaultPlan(
		simnet.WithCrash(2*time.Second, "srv-0"),
		// While down, the disk loses every chunk fetched so far; only the
		// journal survives.
		simnet.WithCall(3*time.Second, "wipe-disk", func() {
			wiped := blob.NewStore()
			for _, j := range a.store.Journals() {
				wiped.Begin(j.Manifest, j.Origin, j.Coordinator)
			}
			a.store = wiped
		}),
		simnet.WithRestart(5*time.Second, "srv-0"),
	)
	plan.Apply(net)
	net.RunFor(10 * time.Minute)

	if plan.Fired() != 3 {
		t.Fatalf("fault plan fired %d of 3 events", plan.Fired())
	}
	if !a.Complete("model", 1) {
		t.Fatal("agent never completed after disk loss")
	}
	// Everything fetched before the crash was lost, so those chunks went
	// over the wire twice.
	if a.ChunksFetched <= 64 {
		t.Errorf("lifetime ChunksFetched = %d, want > 64 (lost chunks must be re-fetched)", a.ChunksFetched)
	}
}

// TestTrackerlessTransferResumesAfterCrash: the journal records that the
// transfer had no coordinator, and the restarted agent goes back to the
// origin for exactly the digests it still misses.
func TestTrackerlessTransferResumesAfterCrash(t *testing.T) {
	const (
		chunks  = 64
		slowBps = 1.25e7
	)
	r := newSwarmBps(t, 1, 1, 13, slowBps)
	a := r.agents[0]
	m, err := r.registry.Publish(SyntheticPackage("model", 1, chunks<<20, DefaultChunkSize, 42))
	if err != nil {
		t.Fatal(err)
	}
	var final TransferStats
	a.OnComplete(func(_ blob.Manifest, _ time.Duration, st TransferStats) { final = st })
	a.OnAnnounce(MetadataFor(m, "registry", ""))

	plan := simnet.NewFaultPlan(
		simnet.WithCrash(2*time.Second, a.id),
		simnet.WithRestart(20*time.Second, a.id),
	)
	plan.Apply(r.net)
	r.net.RunFor(10 * time.Minute)

	if plan.Fired() != 2 {
		t.Fatalf("fault plan fired %d of 2 events", plan.Fired())
	}
	if !a.Complete("model", 1) {
		t.Fatal("agent never completed after restart")
	}
	if !final.Resumed || final.ResumeVerified <= 0 || final.ResumeVerified >= chunks {
		t.Fatalf("Resumed = %v, ResumeVerified = %d, want a resume from mid-transfer (0 < n < %d)",
			final.Resumed, final.ResumeVerified, chunks)
	}
	if final.ChunksFetched != chunks-final.ResumeVerified || a.ChunksFetched != chunks {
		t.Errorf("fetched %d after restart and %d in both lives, want %d and %d",
			final.ChunksFetched, a.ChunksFetched, chunks-final.ResumeVerified, chunks)
	}
	if a.ChunksFromPeers != 0 || r.tracker.Wants != 0 {
		t.Errorf("%d chunks from peers, %d tracker wants; want 0, 0", a.ChunksFromPeers, r.tracker.Wants)
	}
}
