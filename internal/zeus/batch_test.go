package zeus

import (
	"fmt"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// TestGroupCommitBatchesWaves checks the group-commit mechanism: writes that
// arrive while a wave is in flight coalesce, so far fewer proposal waves go
// out than writes, and every write still commits. Two arrival shapes: one
// client bursting 40 writes in one instant, and 32 concurrent writers each
// issuing its next write only when the previous one is acknowledged.
func TestGroupCommitBatchesWaves(t *testing.T) {
	t.Run("burst", func(t *testing.T) {
		net, e := testDeployment(t, 31)
		c := addClient(net, e, "tailer")
		const n = 40
		assertCoalesced(t, net, e, n, func(done func(WriteResult)) {
			ctx := clientCtx(net, "tailer")
			for i := 0; i < n; i++ {
				c.Write(&ctx, fmt.Sprintf("/burst/cfg-%d", i), []byte("x"), done)
			}
		})
	})
	t.Run("32 writers", func(t *testing.T) {
		net, e := testDeployment(t, 32)
		const writers, perWriter = 32, 4
		clients := make([]*Client, writers)
		for w := range clients {
			clients[w] = addClient(net, e, simnet.NodeID(fmt.Sprintf("writer-%d", w)))
		}
		assertCoalesced(t, net, e, writers*perWriter, func(done func(WriteResult)) {
			for w, c := range clients {
				w, c := w, c
				id := simnet.NodeID(fmt.Sprintf("writer-%d", w))
				var step func(k int)
				step = func(k int) {
					if k == perWriter {
						return
					}
					ctx := clientCtx(net, id)
					c.Write(&ctx, fmt.Sprintf("/dist/w%02d/cfg-%d", w, k), []byte("x"), func(r WriteResult) {
						done(r)
						step(k + 1)
					})
				}
				step(0)
			}
		})
	})
}

// assertCoalesced runs issue on the sim thread (issue passes done to every
// Write), waits for n commits, and checks they rode in fewer than n/2
// proposal waves and commit batches.
func assertCoalesced(t *testing.T, net *simnet.Network, e *Ensemble, n int, issue func(done func(WriteResult))) {
	t.Helper()
	reg := obs.New()
	e.SetObs(reg)
	committed := 0
	net.After(0, func() { issue(func(WriteResult) { committed++ }) })
	net.RunFor(30 * time.Second)
	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	waves := reg.Counters().Get("zeus.propose.waves")
	if waves <= 0 || waves >= int64(n/2) {
		t.Errorf("proposal waves = %d for %d writes, want coalescing (< %d)", waves, n, n/2)
	}
	if ops := reg.Counters().Get("zeus.propose.ops"); ops < int64(n) {
		t.Errorf("proposed ops = %d, want >= %d", ops, n)
	}
	if batches := reg.Counters().Get("zeus.commit.batches"); batches <= 0 || batches >= int64(n/2) {
		t.Errorf("commit batches = %d, want batched commits", batches)
	}
}

// TestObserverCoalescesRapidWrites drives the observer's batch-apply path
// directly: one commit batch carrying N rapid writes to the same path must
// produce exactly ONE watch notification, carrying the final version.
func TestObserverCoalescesRapidWrites(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 33)
	reg := obs.New()
	o := NewObserver("obs-1", []simnet.NodeID{"zeus-0"})
	o.Obs = reg
	net.AddNode("obs-1", simnet.Placement{Region: "us", Cluster: "c1"}, o)
	// A member stand-in, so batches arrive from a node the observer knows.
	net.AddNode("zeus-0", simnet.Placement{Region: "us", Cluster: "zk"}, simnet.HandlerFunc(
		func(*simnet.Context, simnet.NodeID, simnet.Message) {}))

	var events []MsgWatchEvent
	watcher := simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(MsgWatchEvent); ok {
			events = append(events, m)
		}
	})
	net.AddNode("proxy-1", simnet.Placement{Region: "us", Cluster: "c1"}, watcher)
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "proxy-1")
		ctx.Send("obs-1", MsgFetch{ReqID: 1, Path: "/hot", Watch: true})
	})
	net.RunFor(2 * time.Second)

	const n = 8
	var updates []Update
	var prev *Record
	for i := 1; i <= n; i++ {
		cur := recordOf([]byte(fmt.Sprintf("v%d", i)))
		updates = append(updates, Update{
			Path: "/hot", Version: int64(i), Zxid: int64(i),
			Payload: MakePayload(prev, cur),
		})
		prev = cur
	}
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "zeus-0")
		ctx.Send("obs-1", msgUpdates{Epoch: 1, Updates: updates})
	})
	net.RunFor(2 * time.Second)

	if len(events) != 1 {
		t.Fatalf("got %d watch events for one batch of %d writes, want exactly 1: %+v",
			len(events), n, events)
	}
	if events[0].Version != n {
		t.Errorf("coalesced event version = %d, want %d", events[0].Version, n)
	}
	rec := o.Tree().Get("/hot")
	if rec == nil || string(rec.Data) != fmt.Sprintf("v%d", n) {
		t.Fatalf("observer tree = %v", rec)
	}
	// The single event must materialize the final content for a watcher
	// holding the pre-batch state (nil here: the path was empty at fetch).
	if got, _, err := events[0].Payload.Resolve(nil, 0); err != nil || string(got) != fmt.Sprintf("v%d", n) {
		t.Errorf("event payload resolve = %q, %v", got, err)
	}
	if co := reg.Counters().Get("zeus.observer.coalesced"); co != n-1 {
		t.Errorf("coalesced counter = %d, want %d", co, n-1)
	}
}

// TestWatchOrderingAcrossFailover floods one path with writes while the
// leader crashes mid-stream. Watchers may see coalesced subsets, but the
// versions they see must never go backwards, and the final notification
// must carry the final version.
func TestWatchOrderingAcrossFailover(t *testing.T) {
	net, e := testDeployment(t, 34)
	obsv := e.AddObserver("obs-c1", simnet.Placement{Region: "us-west", Cluster: "c1"})
	net.RunFor(5 * time.Second)
	c := addClient(net, e, "tailer")

	var versions []int64
	watcher := simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(MsgWatchEvent); ok {
			versions = append(versions, m.Version)
		}
	})
	net.AddNode("proxy-1", simnet.Placement{Region: "us-west", Cluster: "c1"}, watcher)
	// Keep the watch session alive: observers prune watchers that go
	// silent past watchSessionTTL, so ping like a real proxy would.
	var keepalive func()
	keepalive = func() {
		ctx := simnet.MakeContext(net, "proxy-1")
		ctx.Send("obs-c1", MsgPing{ReqID: 0})
		net.After(2*time.Second, keepalive)
	}
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "proxy-1")
		ctx.Send("obs-c1", MsgFetch{ReqID: 1, Path: "/hot", Watch: true})
		keepalive()
	})
	net.RunFor(2 * time.Second)

	const n = 30
	committed := 0
	net.After(0, func() {
		ctx := clientCtx(net, "tailer")
		for i := 0; i < n; i++ {
			c.Write(&ctx, "/hot", []byte(fmt.Sprintf("w%d", i)), func(WriteResult) { committed++ })
		}
	})
	// Crash the leader while the burst is in flight, then let a new one
	// take over and the client retries drain.
	net.RunFor(30 * time.Millisecond)
	crashed := e.Leader()
	net.Fail(crashed)
	net.RunFor(60 * time.Second)
	net.Recover(crashed)
	net.RunFor(30 * time.Second)

	if committed != n {
		t.Fatalf("committed %d of %d", committed, n)
	}
	if len(versions) == 0 {
		t.Fatal("watcher saw no events")
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] <= versions[i-1] {
			t.Fatalf("watch versions out of order: %v", versions)
		}
	}
	finalRec := obsv.Tree().Get("/hot")
	if finalRec == nil {
		t.Fatal("observer missing /hot")
	}
	if last := versions[len(versions)-1]; last != finalRec.Version {
		t.Errorf("last notified version = %d, observer tree at %d", last, finalRec.Version)
	}
	if len(versions) >= int(finalRec.Version) {
		t.Logf("note: no coalescing observed (%d events for %d versions)", len(versions), finalRec.Version)
	}
}

// TestLeaderCrashMidBatch covers the chaos acceptance criterion: a leader
// crash while batched proposals are in flight must lose or commit each
// write atomically per the ZAB contract — after recovery every replica
// agrees, and the client's retries land every write exactly per its
// at-least-once contract.
func TestLeaderCrashMidBatch(t *testing.T) {
	for _, crashAfter := range []time.Duration{
		5 * time.Millisecond,   // before any wave is durably logged
		50 * time.Millisecond,  // waves logged, quorum not yet assembled
		150 * time.Millisecond, // mid-commit across regions
	} {
		crashAfter := crashAfter
		t.Run(crashAfter.String(), func(t *testing.T) {
			net, e := testDeployment(t, 35)
			c := addClient(net, e, "tailer")

			const n = 20
			committed := 0
			net.After(0, func() {
				ctx := clientCtx(net, "tailer")
				for i := 0; i < n; i++ {
					c.Write(&ctx, fmt.Sprintf("/batch/cfg-%d", i), []byte(fmt.Sprintf("b%d", i)),
						func(WriteResult) { committed++ })
				}
			})
			net.RunFor(crashAfter)
			crashed := e.Leader()
			if crashed == "" {
				t.Fatal("no leader to crash")
			}
			net.Fail(crashed)
			net.RunFor(60 * time.Second)
			net.Recover(crashed)
			net.RunFor(60 * time.Second)

			if committed != n {
				t.Fatalf("committed %d of %d after failover", committed, n)
			}
			leader := e.LeaderServer()
			if leader == nil {
				t.Fatal("no leader after recovery")
			}
			for i := 0; i < n; i++ {
				path := fmt.Sprintf("/batch/cfg-%d", i)
				want := fmt.Sprintf("b%d", i)
				rec := leader.Tree().Get(path)
				if rec == nil || string(rec.Data) != want {
					t.Errorf("leader missing %s", path)
				}
				// Atomic per ZAB: every replica has the identical record.
				for id, s := range e.Servers {
					got := s.Tree().Get(path)
					if got == nil || string(got.Data) != want || got.Zxid != rec.Zxid {
						t.Errorf("%s diverged on %s: %+v", id, path, got)
					}
				}
			}
		})
	}
}

// TestWavesAckedOutOfOrderCommitInOrder: wave 2 reaches quorum while wave 1 is
// still one ack short. Nothing commits until wave 1's late ack lands; then
// both waves commit in zxid order as one run — one commit message, one batch.
func TestWavesAckedOutOfOrderCommitInOrder(t *testing.T) {
	net := simnet.New(simnet.LatencyModel{SameCluster: time.Millisecond}, 1)
	e := StartEnsemble(net, 5, []simnet.Placement{{Region: "r", Cluster: "c"}})
	net.RunFor(10 * time.Second)
	leader := e.Leader()
	if leader == "" {
		t.Fatal("no leader elected")
	}
	var f []simnet.NodeID // followers
	for _, m := range e.Members {
		if m != leader {
			f = append(f, m)
		}
	}
	reg := obs.New()
	e.SetObs(reg)
	var replies []MsgWriteReply
	net.AddNode("w", simnet.Placement{Region: "r", Cluster: "c"},
		simnet.HandlerFunc(func(_ *simnet.Context, _ simnet.NodeID, msg simnet.Message) {
			replies = append(replies, msg.(MsgWriteReply))
		}))

	// Wave 1 reaches f[0] and f[1] only, and f[1]'s ack is 200 ms late: the
	// leader holds two of the three acks it needs. Wave 2, proposed after the
	// cut heals, is acked by f[2] and f[3] within ~15 ms.
	net.Partition(leader, f[2])
	net.Partition(leader, f[3])
	net.SetLinkLatency(f[1], leader, 200*time.Millisecond)
	net.Send("w", leader, MsgWrite{ReqID: 1, Path: "/one", Data: []byte("1")})
	net.After(5*time.Millisecond, func() {
		net.Heal(leader, f[2])
		net.Heal(leader, f[3])
		net.Send("w", leader, MsgWrite{ReqID: 2, Path: "/two", Data: []byte("2")})
	})

	net.RunFor(100 * time.Millisecond)
	if ops := reg.Counters().Get("zeus.propose.waves"); ops != 2 {
		t.Fatalf("proposal waves = %d, want 2 separate waves", ops)
	}
	if len(replies) != 0 || e.Servers[leader].Tree().Get("/two") != nil {
		t.Fatalf("wave 2 committed ahead of wave 1: replies %+v", replies)
	}
	net.RunFor(200 * time.Millisecond)
	if len(replies) != 2 || replies[0].ReqID != 1 || replies[1].ReqID != 2 ||
		!replies[0].OK || !replies[1].OK || replies[0].Zxid >= replies[1].Zxid {
		t.Fatalf("replies = %+v, want write 1 then write 2 in zxid order", replies)
	}
	c := reg.Counters()
	if b, ops := c.Get("zeus.commit.batches"), c.Get("zeus.commit.ops"); b != 1 || ops != 2 {
		t.Errorf("commit batches = %d carrying %d ops, want one run of 2", b, ops)
	}
	net.RunFor(5 * time.Second) // f[2] and f[3] missed wave 1's proposal and resync
	for id, s := range e.Servers {
		if s.Tree().Get("/one") == nil || s.Tree().Get("/two") == nil {
			t.Errorf("%s is missing a committed write", id)
		}
	}
}
