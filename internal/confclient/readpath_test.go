package confclient

import (
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
)

// TestValueCacheAcrossVersions: each committed version of a path is decoded
// once and then served as the same shared *Value; a new version yields a
// new (distinct) value. N versions -> N distinct pointers.
func TestValueCacheAcrossVersions(t *testing.T) {
	net, wc, cl, _ := newStack(t)
	const path = "/configs/versions"
	const n = 5
	seen := make(map[*Value]int64)
	for i := 1; i <= n; i++ {
		write(t, net, wc, path, fmt.Sprintf(`{"v":%d}`, i))
		if i == 1 {
			cl.Want(path)
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
	net, wc, cl, _ := newStack(t)
	reg := obs.New()
	cl.SetObs(reg)
	const body = `{"shared":true,"weight":3}`
	write(t, net, wc, "/configs/shared/a", body)
	write(t, net, wc, "/configs/shared/b", body)
	cl.Want("/configs/shared/a", "/configs/shared/b")
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
	if !va.Bool("shared", false) || !vb.Bool("shared", false) {
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

// TestMapAliasingRegression: Values are shared between readers, so a caller
// mutating a returned Map (or Strings) must not corrupt what the next Get
// sees.
func TestMapAliasingRegression(t *testing.T) {
	net, wc, cl, _ := newStack(t)
	const path = "/configs/aliasing"
	write(t, net, wc, path, `{"limits":{"mem":512},"hosts":["h1","h2"]}`)
	cl.Want(path)
	net.RunFor(2 * time.Second)

	v1, err := cl.Get(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	m := v1.Map("limits")
	m["mem"] = float64(-1)
	m["injected"] = true
	hs := v1.Strings("hosts")
	hs[0] = "evil"

	v2, err := cl.Get(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.Map("limits")["mem"].(float64); got != 512 {
		t.Errorf("mutating a returned Map leaked into the shared value: mem = %v", got)
	}
	if v2.Map("limits")["injected"] != nil {
		t.Error("injected key visible to a later reader")
	}
	if hs2 := v2.Strings("hosts"); hs2[0] != "h1" {
		t.Errorf("mutating a returned Strings slice leaked: %v", hs2)
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
			cl.Want(path)
			net.RunFor(2 * time.Second)
			ctx := context.Background()
			if _, err := cl.Get(ctx, path); err != nil { // consume first-read event + decode
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				v, err := cl.Get(ctx, path)
				if err != nil || !v.Bool("enabled", false) {
					t.Fatal("warm read failed")
				}
			})
			if allocs != 0 {
				t.Errorf("warm Get allocates %.1f per run, want 0", allocs)
			}
			if !monitored {
				return
			}
			if allocs := testing.AllocsPerRun(200, func() { px.Read(path) }); allocs != 0 {
				t.Errorf("warm proxy.Read under the monitor allocates %.1f per run, want 0", allocs)
			}
			c := reg.Counters()
			if c.Get("proxy.monitor.heartbeat") == 0 || c.Get("monitor.sweeps") == 0 {
				t.Errorf("monitor plane idle: %d heartbeats, %d sweeps",
					c.Get("proxy.monitor.heartbeat"), c.Get("monitor.sweeps"))
			}
		})
	}
}

// TestConcurrentReadersUnderChurn exercises the snapshot-swap store under
// -race: goroutine readers spin on Get while the simulation thread delivers
// watch events, flips canary overrides, kills the distribution plane, and
// heals it. Every read must return a coherent value.
func TestConcurrentReadersUnderChurn(t *testing.T) {
	net, wc, cl, px := newStack(t)
	const path = "/configs/churn"
	write(t, net, wc, path, `{"v":1}`)
	cl.Want(path)
	net.RunFor(2 * time.Second)

	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, err := cl.Get(ctx, path); err == nil {
					if got := v.Int("v", -1); got < 1 {
						t.Errorf("incoherent read: v = %d (%s)", got, v.Raw)
						return
					}
				}
				r := px.Read(path)
				if r.OK && len(r.Data) == 0 {
					t.Error("read returned OK entry with no data")
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
