package cluster

import (
	"context"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// TestChaosLeaderCrashPlusPartition is the combined-fault scenario: the
// Zeus leader crashes while a region link partition is in effect. The
// ensemble must re-elect, a write must still commit, and once the plan
// heals everything the whole fleet converges on the new version.
func TestChaosLeaderCrashPlusPartition(t *testing.T) {
	reg := obs.New()
	cfg := SmallConfig(3, 77)
	cfg.Obs = reg
	f := New(cfg)
	f.Net.RunFor(10 * time.Second)
	leader := f.Ensemble.Leader()
	if leader == "" {
		t.Fatal("no zeus leader")
	}

	const path = "/chaos/knob"
	writeZeus(t, f, path, `v1`)
	f.SubscribeAll(path)
	f.Net.RunFor(5 * time.Second)

	// Concurrent faults: partition one cluster's observers from the
	// ensemble at t=1s, crash the leader at t=2s (while the partition is
	// live), heal and restart later.
	obsUE1 := f.Observers("ue1")
	members := f.Ensemble.Members
	plan := simnet.NewFaultPlan(
		simnet.WithPartitionGroup(1*time.Second, obsUE1, members),
		simnet.WithCrash(2*time.Second, leader),
		simnet.WithRestart(25*time.Second, leader),
		simnet.WithHealGroup(30*time.Second, obsUE1, members),
	)
	plan.Apply(f.Net)
	f.Net.RunFor(15 * time.Second) // past crash + re-election

	newLeader := f.Ensemble.Leader()
	if newLeader == "" {
		t.Fatal("no leader re-elected after crash")
	}
	if newLeader == leader {
		t.Fatalf("leader still %s after its crash", leader)
	}

	// A write must commit under the combined fault (quorum is 3/5 with one
	// member down; the partition only cuts observers).
	writeZeus(t, f, path, `v2`)

	// Partitioned-off ue1 stays available on the old version (stale-serve),
	// everyone else already has v2.
	for _, s := range f.Cluster("uw1") {
		if v, err := s.Client.Get(context.Background(), path); err != nil || string(v.Raw) != "v2" {
			t.Fatalf("uw1 read during fault: v=%v err=%v, want v2", v, err)
		}
	}
	for _, s := range f.Cluster("ue1") {
		if _, err := s.Client.Get(context.Background(), path); err != nil {
			t.Fatalf("partitioned ue1 server failed a read: %v", err)
		}
	}

	// After the plan heals everything, the whole fleet converges on v2.
	f.Net.RunFor(40 * time.Second)
	if plan.Fired() != plan.Len() {
		t.Fatalf("plan fired %d of %d", plan.Fired(), plan.Len())
	}
	for _, s := range f.AllServers() {
		e := s.Proxy.Read(path)
		if !e.OK || string(e.Data) != "v2" {
			t.Errorf("%s = %q after heal, want v2", s.ID, e.Data)
		}
	}
	if got := reg.Counters().Get("fault.injected"); got != int64(plan.Len()) {
		t.Errorf("fault.injected = %d, want %d", got, plan.Len())
	}
}
