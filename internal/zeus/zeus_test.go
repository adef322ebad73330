package zeus

import (
	"fmt"
	"testing"
	"time"

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
	obs := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second)
	c := addClient(net, e, "tailer")
	// Fire many writes without waiting in between.
	const n = 30
	committed := 0
	net.After(0, func() {
		ctx := clientCtx(net, "tailer")
		for i := 0; i < n; i++ {
			c.Write(&ctx, "/configs/seq", []byte(fmt.Sprintf("v%d", i)), func(r WriteResult) {
				committed++
			})
		}
	})
	net.RunFor(60 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	rec := obs.Tree().Get("/configs/seq")
	if rec == nil || string(rec.Data) != fmt.Sprintf("v%d", n-1) {
		t.Fatalf("observer final value = %v, want v%d", rec, n-1)
	}
	if rec.Version != n {
		t.Errorf("final version = %d, want %d", rec.Version, n)
	}
	// Observer log must be in strictly increasing zxid order per path with
	// consecutive versions.
	ops := obs.Tree().OpsAfter(0)
	lastZxid := int64(0)
	lastVer := int64(0)
	for _, op := range ops {
		if op.Zxid <= lastZxid {
			t.Fatalf("zxid out of order: %d after %d", op.Zxid, lastZxid)
		}
		lastZxid = op.Zxid
		if op.Path == "/configs/seq" {
			if op.Version != lastVer+1 {
				t.Fatalf("version gap: %d after %d", op.Version, lastVer)
			}
			lastVer = op.Version
		}
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
	if len(fetches) != 1 || !fetches[0].Exists {
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

func TestDataTreeOpsAfter(t *testing.T) {
	tree := NewDataTree()
	for i := int64(1); i <= 5; i++ {
		tree.Apply(WriteOp{Zxid: i * 10, Path: "/p", Data: []byte{byte(i)}, Version: i})
	}
	ops := tree.OpsAfter(20)
	if len(ops) != 3 || ops[0].Zxid != 30 {
		t.Fatalf("OpsAfter = %+v", ops)
	}
	if got := tree.NextVersion("/p"); got != 6 {
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
