package tailer

import (
	"testing"
	"time"

	"configerator/internal/simnet"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

func newStack(t *testing.T) (*simnet.Network, *zeus.Ensemble, *vcs.Repository, *Tailer) {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), 7)
	ens := zeus.StartEnsemble(net, 3, []simnet.Placement{
		{Region: "us", Cluster: "zk1"},
		{Region: "us", Cluster: "zk2"},
		{Region: "eu", Cluster: "zk3"},
	})
	net.RunFor(10 * time.Second)
	repo := vcs.NewRepository("configerator")
	tl := New(net, "tailer-1", simnet.Placement{Region: "us", Cluster: "ctrl"},
		repo, ens.Members, "/configs/")
	return net, ens, repo, tl
}

func TestTailerPropagatesCommit(t *testing.T) {
	net, ens, repo, tl := newStack(t)
	repo.CommitChanges("alice", "add", net.Now(),
		vcs.Change{Path: "feed/ranker.json", Content: []byte(`{"w":1}`)})
	net.RunFor(30 * time.Second)
	if tl.WritesIssued != 1 {
		t.Fatalf("WritesIssued = %d", tl.WritesIssued)
	}
	rec := ens.LeaderServer().Tree().Get("/configs/feed/ranker.json")
	if rec == nil || string(rec.Data) != `{"w":1}` {
		t.Fatalf("zeus record = %v", rec)
	}
}

func TestTailerPropagatesOnlyChangedFiles(t *testing.T) {
	net, _, repo, tl := newStack(t)
	repo.CommitChanges("a", "c1", net.Now(),
		vcs.Change{Path: "a.json", Content: []byte("1")},
		vcs.Change{Path: "b.json", Content: []byte("2")})
	net.RunFor(20 * time.Second)
	if tl.WritesIssued != 2 {
		t.Fatalf("WritesIssued = %d, want 2", tl.WritesIssued)
	}
	// A commit touching only one file issues exactly one more write.
	repo.CommitChanges("a", "c2", net.Now(),
		vcs.Change{Path: "a.json", Content: []byte("1b")})
	net.RunFor(20 * time.Second)
	if tl.WritesIssued != 3 {
		t.Fatalf("WritesIssued = %d, want 3", tl.WritesIssued)
	}
}

func TestTailerPropagatesDeletes(t *testing.T) {
	net, ens, repo, _ := newStack(t)
	repo.CommitChanges("a", "add", net.Now(),
		vcs.Change{Path: "x.json", Content: []byte("1")})
	net.RunFor(20 * time.Second)
	repo.CommitChanges("a", "rm", net.Now(), vcs.Change{Path: "x.json", Delete: true})
	net.RunFor(20 * time.Second)
	if rec := ens.LeaderServer().Tree().Get("/configs/x.json"); rec != nil {
		t.Fatalf("deleted config still in zeus: %v", rec)
	}
}

func TestTailerDeliveryCallbackAndLatency(t *testing.T) {
	net, _, repo, tl := newStack(t)
	var deliveredAt time.Time
	tl.OnDelivered(func(path string, zxid int64) {
		if path == "/configs/lat.json" {
			deliveredAt = net.Now()
		}
	})
	committedAt := net.Now()
	repo.CommitChanges("a", "add", committedAt,
		vcs.Change{Path: "lat.json", Content: []byte("x")})
	net.RunFor(30 * time.Second)
	if deliveredAt.IsZero() {
		t.Fatal("delivery callback never fired")
	}
	lat := deliveredAt.Sub(committedAt)
	// Bounded by poll interval (5s) plus consensus round trips.
	if lat <= 0 || lat > 10*time.Second {
		t.Errorf("repo->zeus latency = %v, want (0, 10s]", lat)
	}
}

func TestTailerSurvivesLeaderFailover(t *testing.T) {
	net, ens, repo, _ := newStack(t)
	repo.CommitChanges("a", "c1", net.Now(), vcs.Change{Path: "a.json", Content: []byte("1")})
	net.RunFor(20 * time.Second)
	first := ens.Leader()
	net.Fail(first)
	repo.CommitChanges("a", "c2", net.Now(), vcs.Change{Path: "b.json", Content: []byte("2")})
	net.RunFor(60 * time.Second)
	leader := ens.LeaderServer()
	if leader == nil {
		t.Fatal("no leader after failover")
	}
	rec := leader.Tree().Get("/configs/b.json")
	if rec == nil || string(rec.Data) != "2" {
		t.Fatalf("write after failover missing: %v", rec)
	}
}

// TestTailerCrashLosesNoCommit: a crash must not lose a landed commit,
// whether it hits while a delayed extraction is pending (the cursor must not
// move past commits nobody wrote) or while a write cut off on its way to
// Zeus waits for its retry (the restarted client sends it again).
func TestTailerCrashLosesNoCommit(t *testing.T) {
	for name, before := range map[string]func(*simnet.Network, *Tailer, *zeus.Ensemble){
		"mid-extraction": func(_ *simnet.Network, tl *Tailer, _ *zeus.Ensemble) { tl.SetProcessingDelay(3 * time.Second) },
		"write-in-flight": func(net *simnet.Network, tl *Tailer, ens *zeus.Ensemble) {
			net.PartitionOneWay(tl.id, ens.Members[0])
			net.After(5500*time.Millisecond, func() { net.HealOneWay(tl.id, ens.Members[0]) })
		},
	} {
		t.Run(name, func(t *testing.T) {
			net, ens, repo, tl := newStack(t)
			before(net, tl, ens)
			repo.CommitChanges("a", "add", net.Now(), vcs.Change{Path: "x.json", Content: []byte("1")})
			// The tick at +5 s extracts for 3 s, or writes with the retry
			// due at +6.5 s.
			net.RunFor(5500 * time.Millisecond)
			net.Fail(tl.id)
			issued := tl.WritesIssued
			net.RunFor(5 * time.Second)
			if tl.WritesIssued != issued {
				t.Errorf("the crashed tailer issued %d writes", tl.WritesIssued-issued)
			}
			net.Recover(tl.id)
			net.RunFor(60 * time.Second)
			checkLanded(t, ens, tl, "/configs/x.json")
		})
	}
}

// TestTailerRetriesStayLinear: while a one-way cut keeps its write from the
// leader, the tailer keeps one retry chain for it — a follower's redirect
// back to the cut leader does not start a second — and the write lands once
// the cut heals.
func TestTailerRetriesStayLinear(t *testing.T) {
	net, ens, repo, tl := newStack(t)
	leader := ens.Leader()
	net.PartitionOneWay(tl.id, leader)
	repo.CommitChanges("a", "add", net.Now(), vcs.Change{Path: "x.json", Content: []byte("1")})
	events := net.Events
	net.RunFor(30 * time.Second)
	if n := net.Events - events; n > 2000 {
		t.Errorf("%d events in 30 s with one write retrying", n)
	}
	net.HealOneWay(tl.id, leader)
	net.RunFor(10 * time.Second)
	checkLanded(t, ens, tl, "/configs/x.json")
}

func checkLanded(t *testing.T, ens *zeus.Ensemble, tl *Tailer, path string) {
	t.Helper()
	if rec := ens.LeaderServer().Tree().Get(path); rec == nil {
		t.Errorf("%s never reached the leader's tree", path)
	}
	if n := tl.client.PendingWrites(); n != 0 {
		t.Errorf("%d writes still pending", n)
	}
}
