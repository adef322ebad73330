package zeus

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
)

// testDeployment spins up a 5-member ensemble over three regions with one
// observer per cluster, mirroring the paper's multi-region deployment.
func testDeployment(t *testing.T, seed uint64) (*simnet.Network, *Ensemble) {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), seed)
	placements := []simnet.Placement{
		{Region: "us-west", Cluster: "zk1"},
		{Region: "us-west", Cluster: "zk2"},
		{Region: "us-east", Cluster: "zk3"},
		{Region: "us-east", Cluster: "zk4"},
		{Region: "eu", Cluster: "zk5"},
	}
	e := StartEnsemble(net, 5, placements)
	net.RunFor(10 * time.Second) // elect
	if e.Leader() == "" {
		t.Fatal("no leader elected after 10s")
	}
	return net, e
}

func addClient(net *simnet.Network, e *Ensemble, id simnet.NodeID) *Client {
	c := NewClient(id, e.Members)
	net.AddNode(id, simnet.Placement{Region: "us-west", Cluster: "tailer"}, c)
	return c
}

// write performs a synchronous write by running the network until done.
func write(t *testing.T, net *simnet.Network, c *Client, id simnet.NodeID, path, data string) WriteResult {
	t.Helper()
	var res WriteResult
	got := false
	net.After(0, func() {
		ctx := clientCtx(net, id)
		c.Write(&ctx, path, []byte(data), func(r WriteResult) {
			res = r
			got = true
		})
	})
	for i := 0; i < 200 && !got; i++ {
		net.RunFor(100 * time.Millisecond)
	}
	if !got {
		t.Fatalf("write %s=%s never committed", path, data)
	}
	return res
}

// clientCtx builds a context for driver-initiated sends.
func clientCtx(net *simnet.Network, id simnet.NodeID) simnet.Context {
	return simnet.MakeContext(net, id)
}

func TestLeaderElection(t *testing.T) {
	_, e := testDeployment(t, 1)
	leaders := 0
	for _, s := range e.Servers {
		if s.Role() == RoleLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d, want 1", leaders)
	}
}

func TestWriteReplicatesToQuorumAndFollowers(t *testing.T) {
	net, e := testDeployment(t, 2)
	c := addClient(net, e, "tailer")
	res := write(t, net, c, "tailer", "/configs/a", "v1")
	if !res.OK || res.Version != 1 {
		t.Fatalf("res = %+v", res)
	}
	net.RunFor(5 * time.Second)
	for id, s := range e.Servers {
		rec := s.Tree().Get("/configs/a")
		if rec == nil || string(rec.Data) != "v1" {
			t.Errorf("%s missing committed write", id)
		}
	}
}

func TestVersionsIncrement(t *testing.T) {
	net, e := testDeployment(t, 3)
	c := addClient(net, e, "tailer")
	for i := 1; i <= 3; i++ {
		res := write(t, net, c, "tailer", "/configs/a", fmt.Sprintf("v%d", i))
		if res.Version != int64(i) {
			t.Fatalf("write %d: version = %d", i, res.Version)
		}
	}
}

func TestObserverReplicates(t *testing.T) {
	net, e := testDeployment(t, 4)
	obs := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second) // register
	c := addClient(net, e, "tailer")
	write(t, net, c, "tailer", "/configs/a", "v1")
	net.RunFor(5 * time.Second)
	rec := obs.Tree().Get("/configs/a")
	if rec == nil || string(rec.Data) != "v1" {
		t.Fatal("observer did not receive the pushed write")
	}
}

func TestObserverCatchUpAfterRestart(t *testing.T) {
	net, e := testDeployment(t, 5)
	obs := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second)
	c := addClient(net, e, "tailer")
	write(t, net, c, "tailer", "/configs/a", "v1")
	net.RunFor(2 * time.Second)
	net.Fail("obs-c1")
	write(t, net, c, "tailer", "/configs/a", "v2")
	write(t, net, c, "tailer", "/configs/b", "b1")
	net.RunFor(2 * time.Second)
	net.Recover("obs-c1")
	net.RunFor(10 * time.Second) // periodic re-register catches up
	if rec := obs.Tree().Get("/configs/a"); rec == nil || string(rec.Data) != "v2" {
		t.Error("observer missed /configs/a=v2 after recovery")
	}
	if rec := obs.Tree().Get("/configs/b"); rec == nil || string(rec.Data) != "b1" {
		t.Error("observer missed /configs/b after recovery")
	}
}

func TestLeaderFailover(t *testing.T) {
	net, e := testDeployment(t, 6)
	first := e.Leader()
	c := addClient(net, e, "tailer")
	write(t, net, c, "tailer", "/configs/a", "v1")
	net.Fail(first)
	net.RunFor(30 * time.Second)
	second := e.Leader()
	if second == "" {
		t.Fatal("no new leader after failover")
	}
	if second == first {
		t.Fatalf("leader did not change: %s", second)
	}
	// Writes continue working.
	res := write(t, net, c, "tailer", "/configs/a", "v2")
	if !res.OK {
		t.Fatal("write after failover failed")
	}
	net.RunFor(5 * time.Second)
	for id, s := range e.Servers {
		if id == first {
			continue
		}
		rec := s.Tree().Get("/configs/a")
		if rec == nil || string(rec.Data) != "v2" {
			t.Errorf("%s missing post-failover write", id)
		}
	}
}

func TestOldLeaderRejoins(t *testing.T) {
	net, e := testDeployment(t, 7)
	first := e.Leader()
	c := addClient(net, e, "tailer")
	write(t, net, c, "tailer", "/configs/a", "v1")
	net.Fail(first)
	net.RunFor(30 * time.Second)
	write(t, net, c, "tailer", "/configs/a", "v2")
	net.Recover(first)
	net.RunFor(30 * time.Second)
	// The old leader must have stepped down and caught up.
	old := e.Servers[first]
	if old.Role() == RoleLeader && old.Epoch() <= e.LeaderServer().Epoch() {
		if first != e.Leader() {
			t.Errorf("old leader did not step down")
		}
	}
	rec := old.Tree().Get("/configs/a")
	if rec == nil || string(rec.Data) != "v2" {
		t.Errorf("old leader did not catch up: %v", rec)
	}
}

func TestInOrderDeliveryToObserver(t *testing.T) {
	net, e := testDeployment(t, 8)
	reg := obs.New()
	e.SetObs(reg)
	const path = "/configs/seq"
	reg.BindPath(path, reg.StartTrace("seq", net.Now()))
	o := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second)
	c := addClient(net, e, "tailer")
	// Fire many writes without waiting in between.
	const n = 30
	committed := 0
	net.After(0, func() {
		ctx := clientCtx(net, "tailer")
		for i := 0; i < n; i++ {
			c.Write(&ctx, path, []byte(fmt.Sprintf("v%d", i)), func(r WriteResult) {
				committed++
			})
		}
	})
	net.RunFor(60 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	rec := o.Tree().Get(path)
	if rec == nil || string(rec.Data) != fmt.Sprintf("v%d", n-1) {
		t.Fatalf("observer final value = %v, want v%d", rec, n-1)
	}
	if rec.Version != n {
		t.Errorf("final version = %d, want %d", rec.Version, n)
	}
	// The observer keeps no log; what it applied, and when, is in the trace:
	// one commit span per write in commit order, each with this observer's
	// apply event under it. Zxids must strictly increase, no commit may lack
	// its apply (a live-pushed version is never skipped, so versions reach
	// the observer without a gap), and a later zxid is never applied earlier.
	commits := reg.TraceByKey("seq").Root.Children
	if len(commits) != n {
		t.Fatalf("%d commit spans, want %d", len(commits), n)
	}
	var lastZxid int64
	var lastApply time.Time
	for i, sp := range commits {
		var zxid int64
		for _, a := range sp.Attrs {
			if a.Key == "zxid" {
				fmt.Sscan(a.Value, &zxid)
			}
		}
		if zxid <= lastZxid {
			t.Fatalf("commit %d: zxid out of order: %d after %d", i, zxid, lastZxid)
		}
		lastZxid = zxid
		if len(sp.Children) != 1 || sp.Children[0].Name != "observer obs-c1" {
			t.Fatalf("commit %d (zxid %d): observer applies = %+v, want exactly one", i, zxid, sp.Children)
		}
		if at := sp.Children[0].EndTime; at.Before(lastApply) {
			t.Fatalf("zxid %d applied at %v, before its predecessor at %v", zxid, at, lastApply)
		} else {
			lastApply = at
		}
	}
	if rec.Zxid != lastZxid || o.Tree().LastZxid() != lastZxid {
		t.Errorf("observer at zxid %d (record %d), last commit %d", o.Tree().LastZxid(), rec.Zxid, lastZxid)
	}
}

func TestWatchNotification(t *testing.T) {
	net, e := testDeployment(t, 9)
	obs := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second)
	c := addClient(net, e, "tailer")
	write(t, net, c, "tailer", "/configs/a", "v1")
	net.RunFor(3 * time.Second)

	// A fake proxy fetches with a watch and then waits for the push.
	var events []MsgWatchEvent
	var fetches []MsgFetchReply
	proxy := simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		switch m := msg.(type) {
		case MsgFetchReply:
			fetches = append(fetches, m)
		case MsgWatchEvent:
			events = append(events, m)
		}
	})
	net.AddNode("proxy-1", simnet.Placement{Region: "us-west", Cluster: "c1"}, proxy)
	net.After(0, func() {
		ctx := clientCtx(net, "proxy-1")
		ctx.Send("obs-c1", MsgFetch{ReqID: 1, Path: "/configs/a", Watch: true})
	})
	net.RunFor(2 * time.Second)
	if len(fetches) != 1 || fetches[0].Delete {
		t.Fatalf("fetch reply = %+v", fetches)
	}
	if got, _, err := fetches[0].Payload.Resolve(nil, 0); err != nil || string(got) != "v1" {
		t.Fatalf("fetch payload = %q, %v", got, err)
	}
	if obs.WatchCount("/configs/a") != 1 {
		t.Fatalf("WatchCount = %d", obs.WatchCount("/configs/a"))
	}
	write(t, net, c, "tailer", "/configs/a", "v2")
	net.RunFor(3 * time.Second)
	if len(events) != 1 || events[0].Version != 2 {
		t.Fatalf("watch events = %+v", events)
	}
	if got, _, err := events[0].Payload.Resolve([]byte("v1"), vcs.HashBytes([]byte("v1"))); err != nil || string(got) != "v2" {
		t.Fatalf("watch payload = %q, %v", got, err)
	}
	// Unwatch stops notifications.
	net.After(0, func() {
		ctx := clientCtx(net, "proxy-1")
		ctx.Send("obs-c1", MsgUnwatch{Path: "/configs/a"})
	})
	net.RunFor(1 * time.Second)
	write(t, net, c, "tailer", "/configs/a", "v3")
	net.RunFor(3 * time.Second)
	if len(events) != 1 {
		t.Fatalf("events after unwatch = %d", len(events))
	}
}

func TestRedirectToLeader(t *testing.T) {
	net, e := testDeployment(t, 10)
	// Point the client away from the leader; it must follow the redirect.
	c := addClient(net, e, "tailer")
	leader := e.Leader()
	for i, m := range e.Members {
		if m != leader {
			c.target = i
			break
		}
	}
	res := write(t, net, c, "tailer", "/x", "1")
	if !res.OK {
		t.Fatal("redirected write failed")
	}
}

func TestDataTreeIdempotent(t *testing.T) {
	tree := NewDataTree()
	op := WriteOp{Zxid: 5, Path: "/a", Data: []byte("x"), Version: 1}
	if !tree.Apply(op) {
		t.Fatal("first apply rejected")
	}
	if tree.Apply(op) {
		t.Fatal("duplicate apply accepted")
	}
	if tree.Apply(WriteOp{Zxid: 3, Path: "/a", Data: []byte("old"), Version: 0}) {
		t.Fatal("stale apply accepted")
	}
	if got := string(tree.Get("/a").Data); got != "x" {
		t.Fatalf("data = %q", got)
	}
}

func TestDataTreeChangedAfter(t *testing.T) {
	tree := NewDataTree()
	for i := int64(1); i <= 5; i++ {
		tree.Apply(WriteOp{Zxid: i * 10, Path: fmt.Sprintf("/p%d", i), Data: []byte{byte(i)}, Version: 1})
	}
	ups := tree.ChangedAfter(20)
	if len(ups) != 3 || ups[0].Zxid != 30 || ups[1].Zxid != 40 || ups[2].Zxid != 50 {
		t.Fatalf("ChangedAfter(20) = %+v", ups)
	}
	if u := ups[0]; u.Path != "/p3" || u.Version != 1 || u.Delete ||
		!bytes.Equal(u.Payload.Full, []byte{3}) || u.Payload.NewHash != tree.Get("/p3").Hash {
		t.Fatalf("update = %+v, want /p3's record as a full body with its digest", u)
	}
	// A rewritten path ships once, at its newest version; a deleted one ships
	// as a tombstone until it is re-created.
	tree.Apply(WriteOp{Zxid: 60, Path: "/p1", Data: []byte("again"), Version: 2})
	tree.Apply(WriteOp{Zxid: 70, Path: "/p4", Delete: true})
	ups = tree.ChangedAfter(0)
	var got []string
	for _, u := range ups {
		got = append(got, fmt.Sprintf("%s@%d del=%v", u.Path, u.Zxid, u.Delete))
	}
	want := "[/p2@20 del=false /p3@30 del=false /p5@50 del=false /p1@60 del=false /p4@70 del=true]"
	if fmt.Sprint(got) != want {
		t.Fatalf("ChangedAfter(0) = %v, want %s", got, want)
	}
	if tree.DeletedAt("/p4") != 70 || tree.DeletedAt("/p1") != 0 {
		t.Fatalf("DeletedAt = %d, %d", tree.DeletedAt("/p4"), tree.DeletedAt("/p1"))
	}
	tree.Apply(WriteOp{Zxid: 80, Path: "/p4", Data: []byte("back"), Version: 1})
	if ups = tree.ChangedAfter(60); len(ups) != 1 || ups[0].Delete || ups[0].Zxid != 80 || tree.DeletedAt("/p4") != 0 {
		t.Fatalf("after re-create, ChangedAfter(60) = %+v", ups)
	}
	if ups = tree.ChangedAfter(80); ups != nil {
		t.Fatalf("a caught-up replica is owed %+v", ups)
	}
	if got := tree.NextVersion("/p1"); got != 3 {
		t.Fatalf("NextVersion = %d", got)
	}
	if got := tree.NextVersion("/new"); got != 1 {
		t.Fatalf("NextVersion(new) = %d", got)
	}
}

func TestDataTreeDelete(t *testing.T) {
	tree := NewDataTree()
	tree.Apply(WriteOp{Zxid: 1, Path: "/a", Data: []byte("x"), Version: 1})
	tree.Apply(WriteOp{Zxid: 2, Path: "/a", Delete: true})
	if tree.Get("/a") != nil {
		t.Fatal("deleted path still present")
	}
	if tree.Size() != 0 {
		t.Fatalf("Size = %d", tree.Size())
	}
}

func TestMinorityPartitionBlocksWrites(t *testing.T) {
	net, e := testDeployment(t, 11)
	leader := e.Leader()
	// Partition the leader from all other members: it keeps leadership
	// briefly but cannot commit.
	for _, m := range e.Members {
		if m != leader {
			net.Partition(leader, m)
		}
	}
	c := addClient(net, e, "tailer")
	done := false
	net.After(0, func() {
		ctx := clientCtx(net, "tailer")
		c.Write(&ctx, "/configs/p", []byte("x"), func(WriteResult) { done = true })
	})
	net.RunFor(5 * time.Second)
	// The majority side elects a new leader; the client eventually reaches
	// it by rotating. Either way the write must not be acknowledged by the
	// isolated leader.
	if done {
		// If done, it must have been committed on the majority side.
		var committed int
		for id, s := range e.Servers {
			if id == leader {
				continue
			}
			if s.Tree().Get("/configs/p") != nil {
				committed++
			}
		}
		if committed < 3 {
			t.Fatalf("write acknowledged without quorum (replicas=%d)", committed)
		}
	}
	net.RunFor(60 * time.Second)
	if e.Leader() == leader {
		t.Fatal("isolated leader should have been superseded")
	}
}
