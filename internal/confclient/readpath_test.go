package confclient

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"configerator/internal/monitor"
	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// TestValueCacheAcrossVersions: each committed version of a path is decoded
// once and then served as the same shared *Value; a new version yields a
// new (distinct) value. N versions -> N distinct pointers.
func TestValueCacheAcrossVersions(t *testing.T) {
	net, wc, cl, px := newStack(t)
	const path = "/configs/versions"
	const n = 5
	seen := make(map[*Value]int64)
	for i := 1; i <= n; i++ {
		write(t, net, wc, path, fmt.Sprintf(`{"v":%d}`, i))
		if i == 1 {
			px.Want(path)
			net.RunFor(2 * time.Second)
		}
		v1, err := cl.Get(context.Background(), path)
		if err != nil {
			t.Fatal(err)
		}
		memoBefore := cl.MemoHits()
		v2, err := cl.Get(context.Background(), path)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Fatalf("version %d: repeated Gets returned distinct values (%p vs %p)", i, v1, v2)
		}
		if cl.MemoHits() <= memoBefore {
			t.Errorf("version %d: second Get did not hit the memo slot", i)
		}
		if got := v1.Int("v", -1); got != int64(i) {
			t.Fatalf("version %d: v = %d", i, got)
		}
		seen[v1] = v1.Version
	}
	if len(seen) != n {
		t.Errorf("%d versions produced %d distinct values, want %d", n, len(seen), n)
	}
}

// TestSharedDecodeAcrossPaths: two paths holding byte-identical content
// share one json.Unmarshal — the second path's first read is a content-hash
// memo hit, counter-asserted via confclient.parse.memo/parse.decode.
func TestSharedDecodeAcrossPaths(t *testing.T) {
	net, wc, cl, px := newStack(t)
	reg := obs.New()
	cl.SetObs(reg)
	const body = `{"shared":true,"weight":3}`
	write(t, net, wc, "/configs/shared/a", body)
	write(t, net, wc, "/configs/shared/b", body)
	px.Want("/configs/shared/a")
	px.Want("/configs/shared/b")
	net.RunFor(2 * time.Second)

	va, err := cl.Get(context.Background(), "/configs/shared/a")
	if err != nil {
		t.Fatal(err)
	}
	if d := reg.Counters().Get("confclient.parse.decode"); d != 1 {
		t.Fatalf("decodes after first path = %d, want 1", d)
	}
	vb, err := cl.Get(context.Background(), "/configs/shared/b")
	if err != nil {
		t.Fatal(err)
	}
	if d := reg.Counters().Get("confclient.parse.decode"); d != 1 {
		t.Errorf("decodes after second path = %d, want 1 (content shared)", d)
	}
	if m := reg.Counters().Get("confclient.parse.memo"); m != 1 {
		t.Errorf("parse.memo = %d, want 1", m)
	}
	if va.Int("weight", 0) != 3 || vb.Int("weight", 0) != 3 {
		t.Error("decoded fields wrong")
	}
	if va == vb {
		t.Error("distinct paths must still have distinct Values (Path/Version differ)")
	}
	// Warm re-reads touch neither counter: the per-version memo serves them.
	cl.Get(context.Background(), "/configs/shared/a")
	cl.Get(context.Background(), "/configs/shared/b")
	if d := reg.Counters().Get("confclient.parse.decode"); d != 1 {
		t.Errorf("warm re-reads decoded again (%d)", d)
	}
}

// TestWarmGetZeroAlloc is the headline regression gate: a warm fresh Get is
// one snapshot read plus one memo load — zero heap allocations. The
// monitored case attaches the whole fleet-health plane (proxy heartbeats
// into a sweeping monitor with an SLO) and must read the same 0 at both
// layers: monitoring rides the sim loop, never a read.
func TestWarmGetZeroAlloc(t *testing.T) {
	for _, monitored := range []bool{false, true} {
		name := "bare"
		if monitored {
			name = "monitored"
		}
		t.Run(name, func(t *testing.T) {
			net, ens, wc, cl, px := newStackEns(t)
			reg := obs.New()
			cl.SetObs(reg)
			if monitored {
				px.Obs = reg
				m := monitor.New(monitor.Config{
					ID: "mon", Ensemble: ens, Obs: reg,
					SweepEvery: 500 * time.Millisecond, HeartbeatEvery: 200 * time.Millisecond,
					SLOs: []*monitor.SLO{monitor.ConvergenceSLO(0.99, 2*time.Second)},
				})
				m.Attach(net, simnet.Placement{Region: "us", Cluster: "web"})
				px.EnableMonitor("mon", 200*time.Millisecond)
			}
			const path = "/configs/zeroalloc"
			write(t, net, wc, path, `{"enabled":true,"batch":64}`)
			px.Want(path)
			net.RunFor(2 * time.Second)
			ctx := context.Background()
			if _, err := cl.Get(ctx, path); err != nil { // consume first-read event + decode
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				v, err := cl.Get(ctx, path)
				if err != nil || v.Int("batch", 0) != 64 {
					t.Fatal("warm read failed")
				}
			})
			if allocs != 0 {
				t.Errorf("warm Get allocates %.1f per run, want 0", allocs)
			}
			if monitored {
				if allocs := testing.AllocsPerRun(200, func() { px.Read(path) }); allocs != 0 {
					t.Errorf("warm proxy.Read under the monitor allocates %.1f per run, want 0", allocs)
				}
				c := reg.Counters()
				if c.Get("proxy.monitor.heartbeat") == 0 || c.Get("monitor.sweeps") == 0 {
					t.Errorf("monitor plane idle: %d heartbeats, %d sweeps",
						c.Get("proxy.monitor.heartbeat"), c.Get("monitor.sweeps"))
				}
			}
			// A degraded Get allocates its own Value and nothing else: from
			// memory with the plane down (a copy of the shared value), and
			// from the on-disk copy with the proxy down (no memo to copy).
			net.Fail("obs-1")
			net.RunFor(15 * time.Second)
			degradedGetAllocs(t, cl, path, proxy.SourceCached)
			net.Fail(px.ID())
			degradedGetAllocs(t, cl, path, proxy.SourceStale)
		})
	}
}

// degradedGetAllocs asserts that a Get of path is served from src and
// allocates exactly one object, the Value that carries its Source and Age.
func degradedGetAllocs(t *testing.T, cl *Client, path string, src proxy.Source) {
	t.Helper()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		v, err := cl.Get(ctx, path)
		if err != nil || v.Source != src || v.Int("batch", 0) != 64 {
			t.Fatalf("%s Get = %+v, %v", src, v, err)
		}
	})
	if allocs != 1 {
		t.Errorf("%s Get allocates %.1f per run, want 1 (its Value)", src, allocs)
	}
}

// TestGetMatchesRead: Get and Proxy.Read state the read rule once between
// them. At every state a read can be in, Get reports the Source, Age, Version
// and bytes that Read reports at the same instant (or fails exactly when Read
// has nothing that exists), and a degraded Get never hands out the version's
// shared value; a stale one decodes, since the memo died with the process.
func TestGetMatchesRead(t *testing.T) {
	net, wc, cl, px := newStack(t)
	const path = "/configs/states"
	write(t, net, wc, path, `{"v":1}`)
	px.Want(path)
	net.RunFor(2 * time.Second)
	ctx := context.Background()
	shared, err := cl.Get(ctx, path) // decodes into the version's memo
	if err != nil {
		t.Fatal(err)
	}
	remove := func() {
		done := false
		net.After(0, func() {
			ctx := simnet.MakeContext(net, "tailer")
			wc.Delete(&ctx, path, func(zeus.WriteResult) { done = true })
		})
		net.RunFor(5 * time.Second)
		if !done {
			t.Fatal("delete never committed")
		}
	}
	for _, tc := range []struct {
		name  string
		enter func()
		path  string
		want  proxy.Source
		ok    bool // Get returns a value
	}{
		{"fresh", func() {}, path, proxy.SourceFresh, true},
		{"override", func() { px.SetOverride(path, []byte(`{"v":100}`)) }, path, proxy.SourceFresh, true},
		{"cached", func() {
			px.ClearOverride(path)
			net.Fail("obs-1")
			net.RunFor(15 * time.Second)
		}, path, proxy.SourceCached, true},
		{"stale", func() { net.Fail(px.ID()) }, path, proxy.SourceStale, true},
		{"deleted", func() {
			net.Recover(px.ID())
			net.Recover("obs-1")
			net.RunFor(15 * time.Second)
			remove()
		}, path, proxy.SourceFresh, false},
		{"never fetched", func() {}, "/configs/never", proxy.SourceStale, false},
	} {
		tc.enter()
		memoHits := cl.MemoHits()
		r := px.Read(tc.path)
		v, err := cl.Get(ctx, tc.path)
		if r.Source != tc.want {
			t.Errorf("%s: Read source = %q, want %q", tc.name, r.Source, tc.want)
		}
		if (err == nil) != tc.ok || (err == nil) != (r.OK && r.Exists) {
			t.Errorf("%s: Get err = %v, Read = %+v, want a value %v", tc.name, err, r, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		if v.Source != r.Source || v.Age != r.Age || v.Version != r.Version || !bytes.Equal(v.Raw, r.Data) {
			t.Errorf("%s: Get = {%s %v v%d %s}, Read = {%s %v v%d %s}", tc.name,
				v.Source, v.Age, v.Version, v.Raw, r.Source, r.Age, r.Version, r.Data)
		}
		if degraded := r.Source != proxy.SourceFresh; degraded != (r.Age > 0) {
			t.Errorf("%s: Read age = %v, want > 0 exactly when degraded", tc.name, r.Age)
		}
		switch tc.want {
		case proxy.SourceFresh:
			if m := r.Memo().Load(); v != m {
				t.Errorf("%s: Get returned %p, not the version's shared value %p", tc.name, v, m)
			}
		case proxy.SourceCached:
			if v == shared || v == r.Memo().Load() {
				t.Errorf("%s: Get handed out the shared value", tc.name)
			}
		case proxy.SourceStale:
			if v == shared || r.Memo() != nil {
				t.Errorf("%s: Get = %p (shared %p), Read memo = %p: the dead process's memo was handed out", tc.name, v, shared, r.Memo())
			}
			if got := cl.MemoHits(); got != memoHits {
				t.Errorf("%s: Get hit a memo (%d -> %d), want a decode", tc.name, memoHits, got)
			}
		}
	}
	if shared.Source != proxy.SourceFresh || shared.Age != 0 || shared.Int("v", -1) != 1 {
		t.Errorf("the shared value was written: %+v", shared)
	}
}

// TestConcurrentReadersUnderChurn exercises the snapshot-swap store under
// -race: goroutine readers spin on Get, and others on Proxy.Read, while the
// simulation thread delivers watch events, flips canary overrides, kills the
// distribution plane, and heals it. Every read must return a coherent value,
// and a fresh one no age.
func TestConcurrentReadersUnderChurn(t *testing.T) {
	net, wc, cl, px := newStack(t)
	const path = "/configs/churn"
	write(t, net, wc, path, `{"v":1}`)
	px.Want(path)
	net.RunFor(2 * time.Second)

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < readers; i++ {
		getter := i%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if getter {
					if v, err := cl.Get(ctx, path); err == nil {
						if got := v.Int("v", -1); got < 1 || (v.Source == proxy.SourceFresh && v.Age != 0) {
							t.Errorf("incoherent Get: v = %d (%s), %s, age %v", got, v.Raw, v.Source, v.Age)
							return
						}
					}
				} else if r := px.Read(path); r.OK && (len(r.Data) == 0 || (r.Source == proxy.SourceFresh && r.Age != 0)) {
					t.Errorf("incoherent Read: %+v", r)
					return
				}
				runtime.Gosched()
			}
		}()
	}

	// Churn, all from the simulation/driver thread.
	for i := 2; i <= 5; i++ {
		write(t, net, wc, path, fmt.Sprintf(`{"v":%d}`, i))
	}
	px.SetOverride(path, []byte(`{"v":100}`))
	net.RunFor(1 * time.Second)
	if !px.Overridden(path) {
		t.Error("override not visible")
	}
	px.ClearOverride(path)
	net.RunFor(1 * time.Second)
	// Plane down: the only observer dies; reads degrade to cached.
	net.Fail("obs-1")
	net.RunFor(15 * time.Second)
	if !px.PlaneDown() {
		t.Error("plane should be down")
	}
	// Heal and verify updates flow again.
	net.Recover("obs-1")
	net.RunFor(15 * time.Second)
	if px.PlaneDown() {
		t.Error("plane should have healed")
	}
	write(t, net, wc, path, `{"v":6}`)

	close(stop)
	wg.Wait()

	v, err := cl.Get(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Int("v", -1); got != 6 {
		t.Errorf("final v = %d, want 6", got)
	}
	if v.Source != proxy.SourceFresh {
		t.Errorf("final source = %q, want fresh", v.Source)
	}
}

// TestReadersRaceProxyCrash: reader goroutines Get and Read a path while the
// simulation thread crashes and recovers the proxy under them and commits
// new versions. A path once fetched is always served — from memory in a live
// life, else from the disk copy, which carries no decode memo — and the last
// version is served fresh at the end. Run under -race.
func TestReadersRaceProxyCrash(t *testing.T) {
	net, wc, cl, px := newStack(t)
	const path = "/configs/crash"
	write(t, net, wc, path, `{"v":1}`)
	px.Want(path)
	net.RunFor(2 * time.Second)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, err := cl.Get(context.Background(), path); err != nil || v.Int("v", -1) < 1 {
					t.Errorf("Get across a crash = %v, %v", v, err)
					return
				}
				if r := px.Read(path); !r.OK || (r.Source == proxy.SourceStale && r.Memo() != nil) {
					t.Errorf("Read across a crash = %+v", r)
					return
				}
				runtime.Gosched()
			}
		}()
	}

	for i := 2; i <= 4; i++ {
		net.Fail(px.ID())
		write(t, net, wc, path, fmt.Sprintf(`{"v":%d}`, i)) // lands while the proxy is down
		net.Recover(px.ID())
		net.RunFor(3 * time.Second)
	}
	close(stop)
	wg.Wait()

	v, err := cl.Get(context.Background(), path)
	if err != nil || v.Int("v", -1) != 4 || v.Source != proxy.SourceFresh {
		t.Fatalf("final Get = %+v, %v, want v 4, fresh", v, err)
	}
}
