package packagevessel

import (
	"testing"
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// resumeAfterCrash delivers a 64-chunk package over 100 Mbit/s links to
// agents agents while srv-0 crashes 2 s in and restarts at 20 s. It checks
// what every resume must hold — every agent completes, srv-0 from its
// journal, having re-verified some but not all chunks on disk and fetched
// only the missing ones, each chunk once across both lives — and returns
// the swarm for the caller's own checks.
func resumeAfterCrash(t *testing.T, seed uint64, agents int, tracker simnet.NodeID) *Swarm {
	t.Helper()
	const chunks = 64
	s := NewSwarm(seed, agents, 1)
	throttle(s, 1.25e7)
	victim := s.Agents[0]
	m := publish(t, s, model(1, chunks<<20))
	// The crash wipes all in-memory swarm state; the store (its disk)
	// survives.
	plan := simnet.NewFaultPlan(
		simnet.WithCrash(2*time.Second, victim.id),
		simnet.WithRestart(20*time.Second, victim.id),
	)
	plan.Apply(s.Net)
	done := s.Deliver(m, tracker, 10*time.Minute)
	if plan.Fired() != 2 || len(done) != agents {
		t.Fatalf("fault plan fired %d of 2 events, %d of %d agents completed", plan.Fired(), len(done), agents)
	}
	var final TransferStats
	for _, d := range done {
		if d.Agent == victim {
			final = d.Stats
		}
	}
	// The crash must land mid-transfer for the test to mean anything.
	if !final.Resumed || final.ResumeVerified <= 0 || final.ResumeVerified >= chunks {
		t.Fatalf("Resumed = %v, ResumeVerified = %d, want a resume from mid-transfer (0 < n < %d)",
			final.Resumed, final.ResumeVerified, chunks)
	}
	if final.ChunksFetched != chunks-final.ResumeVerified || victim.ChunksFetched != chunks {
		t.Errorf("fetched %d after restart and %d in both lives, want %d and %d (verified chunks re-downloaded?)",
			final.ChunksFetched, victim.ChunksFetched, chunks-final.ResumeVerified, chunks)
	}
	if victim.ResumeVerified != uint64(final.ResumeVerified) {
		t.Errorf("agent ResumeVerified counter = %d, stats say %d", victim.ResumeVerified, final.ResumeVerified)
	}
	return s
}

// TestResumeAfterCrash is the journal's reason to exist: an agent killed
// mid-download restarts, re-verifies what the journal says is on disk,
// and fetches ONLY the digests that are still missing — no re-download of
// verified chunks — while the rest of the fleet completes undisturbed.
func TestResumeAfterCrash(t *testing.T) {
	resumeAfterCrash(t, 11, 12, "tracker")
}

// TestResumeAfterDiskLoss: chunks lost from disk while the node was down
// fail the restart verification pass and are fetched again — the journal
// trusts the disk only as far as re-verification confirms it.
func TestResumeAfterDiskLoss(t *testing.T) {
	s := NewSwarm(12, 1, 1)
	throttle(s, 1.25e7)
	net, a := s.Net, s.Agents[0]
	m := publish(t, s, model(1, 64<<20))
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
	s := resumeAfterCrash(t, 13, 1, "")
	if a := s.Agents[0]; a.ChunksFromPeers != 0 || s.Tracker.Wants != 0 {
		t.Errorf("%d chunks from peers, %d tracker wants; want 0, 0", a.ChunksFromPeers, s.Tracker.Wants)
	}
}

// checkHolderCounts fails when the tracker's count for a digest differs
// from the number of nodes whose store holds it.
func checkHolderCounts(t *testing.T, s *Swarm, what string) {
	t.Helper()
	stores := []*blob.Store{s.Registry.Store()}
	for _, a := range s.Agents {
		stores = append(stores, a.Store())
	}
	for d, st := range s.Tracker.digests {
		held := 0
		for _, store := range stores {
			if store.Has(d) {
				held++
			}
		}
		if st.count != held {
			t.Errorf("%s: digest %v counts %d holders, %d nodes hold it", what, d, st.count, held)
		}
	}
	if len(s.Tracker.digests) == 0 {
		t.Fatalf("%s: the tracker knows no digest: the check measured nothing", what)
	}
}

// TestTrackerCountsEachHolderOnce: a holder that announces a digest again
// is not counted again — neither the registry publishing a version that
// shares chunks with an earlier one, nor an agent re-announcing its disk
// after a restart. Rarity and the reservoir draws see true counts.
func TestTrackerCountsEachHolderOnce(t *testing.T) {
	s := NewSwarm(7, 0, 1)
	v1 := model(1, 16<<20)
	publish(t, s, v1)
	publish(t, s, NextVersion(v1, 2, 0.25, 42))
	s.Net.RunFor(time.Second)
	checkHolderCounts(t, s, "after two publishes")

	s = resumeAfterCrash(t, 11, 12, "tracker")
	s.Net.RunFor(time.Second)
	checkHolderCounts(t, s, "after a resumed delivery")
}
