package proxy

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

// TestReadZeroAllocWarm: a warm in-memory Read is one atomic snapshot load
// plus map lookups — zero heap allocations, as is a Read of the on-disk copy
// while the proxy is down. This is the proxy half of the
// read-hot-path allocation gate (the client half is confclient's
// TestWarmGetZeroAlloc). The monitored case attaches the proxy's side of the
// fleet-health plane — an obs registry and convergence heartbeats — and
// must read the same 0: heartbeats ride the sim loop, never a Read.
func TestReadZeroAllocWarm(t *testing.T) {
	for _, monitored := range []bool{false, true} {
		name := "bare"
		if monitored {
			name = "monitored"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 31)
			heartbeats := 0
			if monitored {
				r.proxy.Obs = obs.New()
				r.net.AddNode("mon", simnet.Placement{Region: "us", Cluster: "web"},
					simnet.HandlerFunc(func(_ *simnet.Context, _ simnet.NodeID, msg simnet.Message) {
						if _, ok := msg.(MsgMonitorHeartbeat); ok {
							heartbeats++
						}
					}))
				r.proxy.EnableMonitor("mon", 200*time.Millisecond)
			}
			r.write(t, "/configs/app", `{"x":1}`)
			r.proxy.Want("/configs/app")
			r.net.RunFor(2 * time.Second)
			if res := r.proxy.Read("/configs/app"); !res.OK { // consume the first-read event
				t.Fatal("config not warm")
			}
			allocs := testing.AllocsPerRun(200, func() {
				res := r.proxy.Read("/configs/app")
				if !res.OK || res.Source != SourceFresh {
					t.Fatal("warm read failed")
				}
			})
			if allocs != 0 {
				t.Errorf("warm Read allocates %.1f per run, want 0", allocs)
			}
			if monitored && heartbeats == 0 {
				t.Error("monitored case sent no heartbeats: the plane was not live")
			}
			// A crashed proxy's Read serves the on-disk copy and works out its
			// age without allocating.
			r.net.Fail(r.proxy.ID())
			allocs = testing.AllocsPerRun(200, func() {
				res := r.proxy.Read("/configs/app")
				if !res.OK || res.Source != SourceStale || res.Memo() != nil || res.Age <= 0 {
					t.Fatalf("on-disk read = %+v", res)
				}
			})
			if allocs != 0 {
				t.Errorf("stale Read allocates %.1f per run, want 0", allocs)
			}
		})
	}
}

// TestMaterialiseAllocs: taking a pushed version of a warm path costs the same
// few allocations whether the proxy holds 1, 8 or 256 paths — one entryState
// and a pointer store, no copy of the cell table. (The count includes what the
// hand-built event itself costs: its boxing and the payload's resolve cell.)
func TestMaterialiseAllocs(t *testing.T) {
	var allocs []float64
	for _, paths := range []int{1, 8, 256} {
		net := simnet.New(simnet.DefaultLatency(), 37)
		place := simnet.Placement{Region: "us", Cluster: "web"}
		body := []byte("the committed bytes")
		update := func(path string, zxid int64) zeus.Update {
			return zeus.Update{Path: path, Version: zxid, Zxid: zxid, Payload: zeus.Payload{Full: body, NewHash: vcs.HashBytes(body)}}
		}
		net.AddNode("obs-1", place, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
			if m, ok := msg.(zeus.MsgFetch); ok {
				ctx.Send(from, zeus.MsgFetchReply{ReqID: m.ReqID, Update: update(m.Path, 1)})
			}
		}))
		px := New(net, "proxy-1", place, []simnet.NodeID{"obs-1"}, nil)
		delivered := 0
		px.Subscribe("/configs/p000", func(Entry) { delivered++ })
		for i := 1; i < paths; i++ {
			px.Want(fmt.Sprintf("/configs/p%03d", i))
		}
		net.RunFor(time.Second)
		if got := len(px.CachedPaths()); got != paths {
			t.Fatalf("%d paths warm, want %d", got, paths)
		}
		ctx := simnet.MakeContext(net, "proxy-1")
		zxid := int64(1)
		allocs = append(allocs, testing.AllocsPerRun(100, func() {
			zxid++
			px.HandleMessage(&ctx, "obs-1", zeus.MsgWatchEvent{Update: update("/configs/p000", zxid)})
		}))
		if got := px.Read("/configs/p000"); got.Zxid != zxid || delivered != int(zxid) {
			t.Fatalf("after %d pushes the proxy serves zxid %d and delivered %d", zxid-1, got.Zxid, delivered)
		}
	}
	t.Logf("allocations per pushed update at 1, 8, 256 paths: %v", allocs)
	if allocs[0] != allocs[1] || allocs[1] != allocs[2] || allocs[0] > 3 {
		t.Errorf("allocations per pushed update at 1, 8, 256 paths = %v, want one small constant", allocs)
	}
}

// TestReadMissWarmsViaMissQueue: a reader-goroutine miss cannot touch the
// simulator directly, so Read parks the path in the miss set; the proxy
// drains it on its next tick and the config becomes warm without any
// explicit Want. The fetch leaves on the proxy's tick grid — the first grid
// instant after the miss, as when the proxy pinged on every tick — though
// the proxy was quiet and sent nothing until the miss woke it.
func TestReadMissWarmsViaMissQueue(t *testing.T) {
	r := newRig(t, 32)
	anchor := r.net.Now() // newRig created the proxy here: its grid is anchor + k·pingInterval
	r.write(t, "/configs/lazy", `{"x":9}`)
	r.net.RunFor(300 * time.Millisecond) // off the grid, clear of any ping's round trip
	missed := r.net.Now()
	if res := r.proxy.Read("/configs/lazy"); res.OK {
		t.Fatal("unexpected hit before warm-up")
	}
	want := anchor
	for !want.After(missed) {
		want = want.Add(pingInterval)
	}
	fetches := r.proxy.Fetches
	for r.proxy.Fetches == fetches && r.net.Now().Before(want.Add(time.Minute)) && r.net.Step() {
	}
	if got := r.net.Now(); r.proxy.Fetches == fetches || !got.Equal(want) {
		t.Fatalf("miss drained at +%v (fetched: %v), want the next grid instant +%v",
			got.Sub(missed), r.proxy.Fetches > fetches, want.Sub(missed))
	}
	r.net.RunFor(time.Second)
	res := r.proxy.Read("/configs/lazy")
	if !res.OK || res.Source != SourceFresh || string(res.Data) != `{"x":9}` {
		t.Fatalf("read after miss-drain = %+v", res)
	}
}

// TestReadMissWakeRacesLoop: reader goroutines miss on fresh paths while the
// simulation loop runs. Each miss wakes the proxy's lease from a goroutine
// that must not touch the event queue; every path must still end warm.
// Meant for the race detector (make race).
func TestReadMissWakeRacesLoop(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 38)
	place := simnet.Placement{Region: "us", Cluster: "web"}
	body := []byte("warm")
	net.AddNode("obs-1", place, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(zeus.MsgFetch); ok {
			ctx.Send(from, zeus.MsgFetchReply{ReqID: m.ReqID, Update: zeus.Update{Path: m.Path, Version: 1, Zxid: 1,
				Payload: zeus.Payload{Full: body, NewHash: vcs.HashBytes(body)}}})
		}
	}))
	px := New(net, "proxy-1", place, []simnet.NodeID{"obs-1"}, nil)
	const readers, perReader = 8, 16
	path := func(g, i int) string { return fmt.Sprintf("/configs/r%d-%02d", g, i) }
	var wg sync.WaitGroup
	var stop atomic.Bool
	var warm atomic.Int32
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				for !px.Read(path(g, i)).OK {
					if stop.Load() {
						return
					}
					runtime.Gosched()
				}
				warm.Add(1)
			}
		}(g)
	}
	for deadline := time.Now().Add(30 * time.Second); warm.Load() < readers*perReader && time.Now().Before(deadline); {
		net.RunFor(100 * time.Millisecond)
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	for g := 0; g < readers; g++ {
		for i := 0; i < perReader; i++ {
			if res := px.Read(path(g, i)); !res.OK || res.Source != SourceFresh || !bytes.Equal(res.Data, body) {
				t.Fatalf("%s after the race = %+v", path(g, i), res)
			}
		}
	}
}

// TestSnapshotImmutableDuringReads runs goroutine readers of path A against
// the full writer surface on another path B and on A itself — pushed
// updates, overrides set/clear — then against crash/restart and the first
// caching of a never-seen path C (the one update that swaps the cell table),
// under the race detector. Every version of A starts with "A", so a reader
// can tell a complete version of A from a torn one or from B's or C's bytes:
// the data must be A's, the digest must be the data's, a committed entry must
// carry its zxid, and only a stale read comes without a memo slot.
func TestSnapshotImmutableDuringReads(t *testing.T) {
	r := newRig(t, 33)
	const a, b, c = "/configs/a", "/configs/b", "/configs/c"
	r.write(t, a, "A1")
	r.write(t, b, "B1")
	r.proxy.Want(a)
	r.proxy.Want(b)
	r.net.RunFor(2 * time.Second)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := r.proxy.Read(a)
				reads.Add(1)
				if res.OK {
					if !res.Exists || !strings.HasPrefix(string(res.Data), "A") || res.Hash != vcs.HashBytes(res.Data) {
						t.Errorf("torn read of %s: %+v", a, res.Entry)
						return
					}
					if (res.Version != -1 && res.Zxid == 0) || res.Path != a {
						t.Errorf("torn read: committed entry without its zxid or path: %+v", res.Entry)
						return
					}
					if (res.Source == SourceStale) != (res.Memo() == nil) {
						t.Errorf("source %s with memo %v", res.Source, res.Memo())
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}

	for reads.Load() < 100 { // the readers are running before the writers start
		runtime.Gosched()
	}
	for i := 2; i <= 4; i++ {
		r.write(t, b, fmt.Sprintf("B%d", i))
	}
	r.proxy.SetOverride(b, []byte("B-override"))
	r.net.RunFor(500 * time.Millisecond)
	r.proxy.ClearOverride(b)
	r.net.RunFor(500 * time.Millisecond)
	r.write(t, a, "A2")
	r.proxy.SetOverride(a, []byte("A-override"))
	r.net.RunFor(500 * time.Millisecond)
	r.proxy.ClearOverride(a)
	r.net.Fail(r.proxy.ID())
	r.net.RunFor(2 * time.Second)
	r.net.Recover(r.proxy.ID())
	r.net.RunFor(5 * time.Second)
	before := r.proxy.snap.Load()
	r.write(t, c, "C1")
	r.proxy.Want(c)
	r.net.RunFor(2 * time.Second)
	if r.proxy.snap.Load() == before {
		t.Error("first caching of a never-seen path did not swap the snapshot")
	}
	before = r.proxy.snap.Load()
	r.write(t, a, "A3")
	r.write(t, c, "C2")
	if r.proxy.snap.Load() != before {
		t.Error("a pushed version of a cached path swapped the snapshot")
	}

	close(stop)
	wg.Wait()

	for path, want := range map[string]string{a: "A3", b: "B4", c: "C2"} {
		if res := r.proxy.Read(path); !res.OK || string(res.Data) != want || res.Source != SourceFresh {
			t.Errorf("final read of %s = %+v, want %s", path, res, want)
		}
	}
}

// TestRestartKeepsDiskClearsMemory: between a crash-restart and the refetch, a
// cell serves what it last applied as the on-disk copy — same bytes and digest,
// stale, no memo — the path is not in memory, and the refetch advertises that
// digest.
// warmOneConfig stands up proxy-1 behind an observer that answers every fetch
// with one fixed version of path (not-modified when the proxy advertises a
// copy), warms the path, stores a decode in its memo, and returns the warm
// read and the fetches the observer has seen.
func warmOneConfig(t *testing.T, seed uint64, path string, body []byte) (*simnet.Network, *Proxy, ReadResult, *[]zeus.MsgFetch) {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), seed)
	place := simnet.Placement{Region: "us", Cluster: "web"}
	var fetches []zeus.MsgFetch
	net.AddNode("obs-1", place, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		if m, ok := msg.(zeus.MsgFetch); ok {
			fetches = append(fetches, m)
			ctx.Send(from, zeus.MsgFetchReply{ReqID: m.ReqID, NotModified: m.Have, Update: zeus.Update{Path: m.Path, Version: 1, Zxid: 7,
				Payload: zeus.Payload{Full: body, NewHash: vcs.HashBytes(body)}}})
		}
	}))
	px := New(net, "proxy-1", place, []simnet.NodeID{"obs-1"}, nil)
	px.Want(path)
	net.RunFor(time.Second)
	warm := px.Read(path)
	if !warm.OK || warm.Source != SourceFresh || warm.Memo() == nil || len(fetches) != 1 || fetches[0].Have {
		t.Fatalf("warm read = %+v after fetches %+v", warm, fetches)
	}
	warm.Memo().Store("decoded")
	return net, px, warm, &fetches
}

func TestRestartKeepsDiskClearsMemory(t *testing.T) {
	const path = "/configs/app"
	body := []byte("the committed bytes")
	net, px, warm, fp := warmOneConfig(t, 35, path, body)

	net.Fail("proxy-1")
	net.Recover("proxy-1") // no simulated time passes: the refetch is sent when Restarted, later
	got := px.Read(path)
	if !got.OK || got.Source != SourceStale || !bytes.Equal(got.Data, body) || got.Hash != warm.Hash || got.Zxid != 7 {
		t.Errorf("read after restart = %+v, want the last applied entry, stale", got)
	}
	if got.Memo() != nil {
		t.Error("the on-disk copy kept a decode memo across the restart")
	}
	if paths := px.CachedPaths(); len(paths) != 0 {
		t.Errorf("CachedPaths after restart = %v, want none in memory", paths)
	}

	net.RunFor(time.Second)
	fetches := *fp
	if len(fetches) != 2 || !fetches[1].Have || fetches[1].HaveHash != warm.Hash {
		t.Fatalf("refetch = %+v, want one advertising digest %x", fetches[1:], warm.Hash)
	}
	got = px.Read(path)
	if !got.OK || got.Source != SourceFresh || !bytes.Equal(got.Data, body) || got.Memo() == nil || got.Memo().Load() != nil {
		t.Errorf("read after refetch = %+v, want fresh with an empty memo slot", got)
	}
}

// TestFaultPlanCrashIsAFullCrash: a proxy crashed by a fault plan, like any
// other node, loses its process memory at the crash instant — it is down and
// reads fall to the on-disk copy, with no memo — and after the restart it
// refetches, advertising that copy's digest.
func TestFaultPlanCrashIsAFullCrash(t *testing.T) {
	const path = "/configs/app"
	body := []byte("the committed bytes")
	net, px, warm, fp := warmOneConfig(t, 38, path, body)

	var atCrash ReadResult
	var down bool
	simnet.NewFaultPlan(
		simnet.WithCrash(time.Second, "proxy-1"),
		simnet.WithCall(time.Second, "probe", func() { down, atCrash = px.Down(), px.Read(path) }),
		simnet.WithRestart(3*time.Second, "proxy-1"),
	).Apply(net)
	net.RunFor(2 * time.Second)
	if !down {
		t.Error("Down() = false at the crash instant")
	}
	if !atCrash.OK || atCrash.Source != SourceStale || atCrash.Memo() != nil || !bytes.Equal(atCrash.Data, body) {
		t.Errorf("read at the crash instant = %+v, want the on-disk copy, stale, no memo", atCrash)
	}
	if got := px.Read(path); got.Source != SourceStale || got.Memo() != nil {
		t.Errorf("read while down = %+v, want stale, no memo", got)
	}

	net.RunFor(2 * time.Second)
	fetches := *fp
	if px.Down() || len(fetches) != 2 || !fetches[1].Have || fetches[1].HaveHash != warm.Hash {
		t.Fatalf("after the restart: down %v, refetch %+v, want one advertising digest %x", px.Down(), fetches[1:], warm.Hash)
	}
	if got := px.Read(path); got.Source != SourceFresh || got.Memo() == nil || got.Memo().Load() != nil {
		t.Errorf("read after refetch = %+v, want fresh with an empty memo slot", got)
	}
}

// TestNewSeedsFromDisk: a proxy handed what an earlier process left on disk
// serves it stale before its first fetch, and does not write back into the
// cache it was seeded from.
func TestNewSeedsFromDisk(t *testing.T) {
	r := newRig(t, 36)
	const path = "/configs/app"
	r.write(t, path, "v2")
	left := NewDiskCache()
	left.Store(Entry{Path: path, Exists: true, Data: []byte("v1"), Version: 1, Zxid: 1})
	px := New(r.net, "proxy-2", simnet.Placement{Region: "us", Cluster: "web"}, []simnet.NodeID{"obs-1"}, left)
	if got := px.Read(path); !got.OK || got.Source != SourceStale || string(got.Data) != "v1" || got.Hash != vcs.HashBytes([]byte("v1")) {
		t.Fatalf("read before the first fetch = %+v, want the seeded v1, stale", got)
	}
	r.net.RunFor(5 * time.Second) // the miss is drained on the first ping tick
	if got := px.Read(path); !got.OK || got.Source != SourceFresh || string(got.Data) != "v2" {
		t.Fatalf("read after the fetch = %+v, want v2 fresh", got)
	}
	if e, _ := left.Load(path); string(e.Data) != "v1" {
		t.Errorf("the seed cache now holds %q: the proxy wrote into it", e.Data)
	}
	e, ok := px.Disk().Load(path)
	if !ok || string(e.Data) != "v2" || e.Memo() != nil {
		t.Errorf("proxy's disk side = %+v, %v, want v2 without a memo", e, ok)
	}
	copy(e.Data, "XX") // the view hands out copies: the cell's bytes are shared fleet-wide
	if got := px.Read(path); string(got.Data) != "v2" {
		t.Errorf("scribbling on what Disk().Load returned changed the cell: %q", got.Data)
	}
}

// TestMemoPreservedAcrossNotModified: a "not modified" refresh of the same
// zxid must keep the entry's decode memo (same version — same parse), while
// a real new version swaps in a fresh slot.
func TestMemoPreservedAcrossNotModified(t *testing.T) {
	r := newRig(t, 34)
	const path = "/configs/app"
	r.write(t, path, `{"x":1}`)
	r.proxy.Want(path)
	r.net.RunFor(2 * time.Second)

	e1 := r.proxy.Read(path)
	if e1.Memo() == nil {
		t.Fatal("cached entry has no memo slot")
	}
	e1.Memo().Store("decoded-v1")

	// Crash/restart: the refetch advertises the disk hash and typically
	// comes back "not modified", but the in-memory snapshot was rebuilt —
	// a fresh slot is correct too. What matters is a slot always exists
	// and version changes always replace it.
	r.write(t, path, `{"x":2}`)
	e2 := r.proxy.Read(path)
	if e2.Memo() == nil {
		t.Fatal("new version has no memo slot")
	}
	if e2.Memo() == e1.Memo() {
		t.Fatal("new version reused the old version's memo slot")
	}
	if v := e2.Memo().Load(); v != nil {
		t.Fatalf("new version's memo slot not empty: %v", v)
	}
	// Re-reading the same version keeps the same slot (and its contents).
	e2.Memo().Store("decoded-v2")
	e3 := r.proxy.Read(path)
	if e3.Memo() != e2.Memo() || e3.Memo().Load() != "decoded-v2" {
		t.Error("same version did not share its memo slot across reads")
	}
}
