package proxy

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"configerator/internal/health"
	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

// rig is a small Zeus deployment with two observers in one cluster and a
// proxy, mirroring one production cluster.
type rig struct {
	net    *simnet.Network
	ens    *zeus.Ensemble
	client *zeus.Client
	proxy  *Proxy
}

func newRig(t *testing.T, seed uint64) *rig {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), seed)
	placements := []simnet.Placement{
		{Region: "us", Cluster: "zk1"},
		{Region: "us", Cluster: "zk2"},
		{Region: "eu", Cluster: "zk3"},
	}
	ens := zeus.StartEnsemble(net, 3, placements)
	ens.AddObserver("obs-1", simnet.Placement{Region: "us", Cluster: "web"})
	ens.AddObserver("obs-2", simnet.Placement{Region: "us", Cluster: "web"})
	cl := zeus.NewClient("tailer", ens.Members)
	net.AddNode("tailer", simnet.Placement{Region: "us", Cluster: "ctrl"}, cl)
	net.RunFor(10 * time.Second)
	if ens.Leader() == "" {
		t.Fatal("no leader")
	}
	px := New(net, "proxy-1", simnet.Placement{Region: "us", Cluster: "web"},
		[]simnet.NodeID{"obs-1", "obs-2"}, nil)
	return &rig{net: net, ens: ens, client: cl, proxy: px}
}

func (r *rig) write(t *testing.T, path, data string) {
	t.Helper()
	done := false
	r.net.After(0, func() {
		ctx := simnet.MakeContext(r.net, "tailer")
		r.client.Write(&ctx, path, []byte(data), func(zeus.WriteResult) { done = true })
	})
	for i := 0; i < 100 && !done; i++ {
		r.net.RunFor(200 * time.Millisecond)
	}
	if !done {
		t.Fatalf("write %s never committed", path)
	}
	r.net.RunFor(5 * time.Second) // let pushes settle
}

func TestProxyFetchesOnDemand(t *testing.T) {
	r := newRig(t, 1)
	r.write(t, "/configs/app", `{"x":1}`)
	r.proxy.Want("/configs/app")
	r.net.RunFor(2 * time.Second)
	e := r.proxy.Read("/configs/app")
	if !e.OK || !e.Exists || string(e.Data) != `{"x":1}` {
		t.Fatalf("Read = %+v", e)
	}
}

func TestProxyReceivesPushedUpdate(t *testing.T) {
	r := newRig(t, 2)
	r.write(t, "/configs/app", `{"x":1}`)
	var updates []string
	r.proxy.Subscribe("/configs/app", func(e Entry) {
		updates = append(updates, string(e.Data))
	})
	r.net.RunFor(2 * time.Second)
	r.write(t, "/configs/app", `{"x":2}`)
	e := r.proxy.Read("/configs/app")
	if string(e.Data) != `{"x":2}` {
		t.Fatalf("proxy cache = %s", e.Data)
	}
	if len(updates) < 2 || updates[len(updates)-1] != `{"x":2}` {
		t.Fatalf("updates = %v", updates)
	}
}

func TestProxyObserverFailover(t *testing.T) {
	r := newRig(t, 3)
	r.write(t, "/configs/app", `v1`)
	r.proxy.Want("/configs/app")
	r.net.RunFor(2 * time.Second)
	// Kill the connected observer; the proxy must fail over and keep
	// receiving updates via the other observer.
	connected := r.proxy.observer()
	r.net.Fail(connected)
	r.net.RunFor(15 * time.Second)
	if r.proxy.observer() == connected {
		t.Fatal("proxy did not fail over")
	}
	r.write(t, "/configs/app", `v2`)
	e := r.proxy.Read("/configs/app")
	if string(e.Data) != "v2" {
		t.Fatalf("after failover, cache = %s", e.Data)
	}
	if r.proxy.Failovers == 0 {
		t.Error("failover counter not incremented")
	}
}

// TestHealthiestObserverOrder pins the order in which a proxy picks observers
// from its ledger: a healthy one before a slow one (400 ms), a slow one before
// one that failed its last fetch, a failed share of a half before 900 ms of
// latency, and between equal scores the lower id, wherever it is listed.
func TestHealthiestObserverOrder(t *testing.T) {
	healthy := obsStats{ok: 10, rttEWMA: 5}
	slow := obsStats{ok: 10, rttEWMA: 400}
	failing := obsStats{ok: 9, fail: 1, consecFail: 1, rttEWMA: 1}
	for _, tc := range []struct {
		name      string
		observers []simnet.NodeID
		stats     []obsStats
		skip      simnet.NodeID
		want      simnet.NodeID
	}{
		{"healthy first", []simnet.NodeID{"obs-a", "obs-b", "obs-c"}, []obsStats{failing, slow, healthy}, "", "obs-c"},
		{"slow before failing", []simnet.NodeID{"obs-a", "obs-b", "obs-c"}, []obsStats{failing, slow, healthy}, "obs-c", "obs-b"},
		{"failing last", []simnet.NodeID{"obs-a", "obs-b", "obs-c"}, []obsStats{failing, healthy, slow}, "obs-b", "obs-c"},
		{"failed share vs latency", []simnet.NodeID{"obs-a", "obs-b"},
			[]obsStats{{ok: 1, fail: 1, rttEWMA: 1}, {ok: 2, rttEWMA: 900}}, "", "obs-a"},
		{"tie goes to the lower id", []simnet.NodeID{"obs-c", "obs-b", "obs-a"}, []obsStats{failing, healthy, healthy}, "", "obs-a"},
		{"tie, lower id skipped", []simnet.NodeID{"obs-c", "obs-b", "obs-a"}, []obsStats{failing, healthy, healthy}, "obs-a", "obs-b"},
		{"only the skipped one", []simnet.NodeID{"obs-a"}, []obsStats{healthy}, "obs-a", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Proxy{observers: tc.observers, stats: tc.stats}
			var got simnet.NodeID
			if i := p.healthiest(tc.skip); i >= 0 {
				got = p.observers[i]
			}
			if got != tc.want {
				t.Errorf("healthiest(skip %q) = %q, want %q", tc.skip, got, tc.want)
			}
		})
	}
}

func TestDiskCacheFallbackWhenProxyDown(t *testing.T) {
	r := newRig(t, 4)
	r.write(t, "/configs/app", `v1`)
	r.proxy.Want("/configs/app")
	r.net.RunFor(2 * time.Second)
	r.net.Fail(r.proxy.ID())
	// The application still reads the (stale) config from disk.
	e := r.proxy.Read("/configs/app")
	if !e.OK || string(e.Data) != "v1" {
		t.Fatalf("disk fallback = %+v", e)
	}
}

func TestProxyRestartRefetches(t *testing.T) {
	r := newRig(t, 5)
	r.write(t, "/configs/app", `v1`)
	r.proxy.Subscribe("/configs/app", func(Entry) {})
	r.net.RunFor(2 * time.Second)
	r.net.Fail(r.proxy.ID())
	r.write(t, "/configs/app", `v2`) // changes while proxy is down
	r.net.Recover(r.proxy.ID())
	r.net.RunFor(5 * time.Second)
	e := r.proxy.Read("/configs/app")
	if !e.OK || string(e.Data) != "v2" {
		t.Fatalf("after restart, cache = %+v", e)
	}
}

// TestRestartKeepsThisLifesFetches: a Want issued at the Recover instant,
// before Restarted is delivered, already belongs to the new life. Restarted
// must keep that fetch rather than drop it and send the path again: two
// watched paths cost two fetches, and both land.
func TestRestartKeepsThisLifesFetches(t *testing.T) {
	r := newRig(t, 10)
	r.write(t, "/configs/a", `a1`)
	r.write(t, "/configs/b", `b1`)
	r.proxy.Subscribe("/configs/a", func(Entry) {})
	r.net.RunFor(2 * time.Second)
	r.net.Fail(r.proxy.ID())
	r.net.Recover(r.proxy.ID())
	before := r.proxy.Fetches
	r.proxy.Want("/configs/b") // same instant: Restarted is still queued
	r.net.RunFor(2 * time.Second)
	if n := r.proxy.Fetches - before; n != 2 {
		t.Errorf("fetches after the restart = %d, want 2 (one per watched path)", n)
	}
	for path, want := range map[string]string{"/configs/a": "a1", "/configs/b": "b1"} {
		if got := r.proxy.Read(path); got.Source != SourceFresh || string(got.Data) != want {
			t.Errorf("Read(%s) = %+v, want %s fresh", path, got, want)
		}
	}
	if n := r.proxy.InflightCount(); n != 0 {
		t.Errorf("%d fetches still in flight", n)
	}
}

func TestProxyMissingConfig(t *testing.T) {
	r := newRig(t, 6)
	if r.proxy.Read("/configs/never-written").OK {
		t.Fatal("Get of unknown config reported ok")
	}
	r.net.RunFor(2 * time.Second)
	// It was implicitly Want()ed; still should not exist.
	e := r.proxy.Read("/configs/never-written")
	if e.OK && e.Exists {
		t.Fatalf("nonexistent config materialized: %+v", e)
	}
}

func TestManyProxiesAllConverge(t *testing.T) {
	r := newRig(t, 7)
	var proxies []*Proxy
	for i := 0; i < 20; i++ {
		px := New(r.net, simnet.NodeID(fmt.Sprintf("proxy-x%d", i)),
			simnet.Placement{Region: "us", Cluster: "web"},
			[]simnet.NodeID{"obs-1", "obs-2"}, nil)
		px.Want("/configs/shared")
		proxies = append(proxies, px)
	}
	r.write(t, "/configs/shared", `final`)
	r.net.RunFor(5 * time.Second)
	for i, px := range proxies {
		e := px.Read("/configs/shared")
		if !e.OK || string(e.Data) != "final" {
			t.Fatalf("proxy %d: %+v", i, e)
		}
	}
}

func TestDiskCache(t *testing.T) {
	d := NewDiskCache()
	d.Store(Entry{Path: "/a", Exists: true, Data: []byte("x"), Version: 1})
	e, ok := d.Load("/a")
	if !ok || string(e.Data) != "x" {
		t.Fatalf("Load = %+v, %v", e, ok)
	}
	if _, ok := d.Load("/missing"); ok {
		t.Fatal("missing path loaded")
	}
}

// TestDiskCacheCopies is the aliasing regression test: neither a caller
// mutating the slice it Stored nor a subscriber mutating the slice Load
// returned may corrupt the cached entry.
func TestDiskCacheCopies(t *testing.T) {
	d := NewDiskCache()
	data := []byte("original")
	d.Store(Entry{Path: "/a", Exists: true, Data: data, Version: 1})
	copy(data, "CLOBBER!") // caller reuses its buffer after Store

	e, _ := d.Load("/a")
	if string(e.Data) != "original" {
		t.Fatalf("Store aliased caller buffer: cache = %q", e.Data)
	}
	copy(e.Data, "SCRIBBLE") // subscriber scribbles on what Load returned

	e2, _ := d.Load("/a")
	if string(e2.Data) != "original" {
		t.Fatalf("Load aliased cache buffer: cache = %q", e2.Data)
	}
}

// TestFetchSingleFlight asserts the single-flight guard: two Wants for the
// same path before the reply arrives send exactly one MsgFetch.
func TestFetchSingleFlight(t *testing.T) {
	r := newRig(t, 8)
	reg := obs.New()
	r.proxy.Obs = reg
	r.write(t, "/configs/app", `v1`)

	// Back-to-back, with no network progress in between: the second Want
	// must coalesce onto the outstanding fetch.
	r.proxy.Want("/configs/app")
	r.proxy.Want("/configs/app")
	if sf := reg.Counters().Get("proxy.fetch.singleflight"); sf != 1 {
		t.Errorf("proxy.fetch.singleflight = %d, want 1", sf)
	}
	if r.proxy.Fetches != 1 {
		t.Errorf("Fetches = %d, want 1", r.proxy.Fetches)
	}
	r.net.RunFor(2 * time.Second)
	e := r.proxy.Read("/configs/app")
	if !e.OK || string(e.Data) != "v1" {
		t.Fatalf("after coalesced fetch, Read = %+v", e)
	}
}

// TestProxyRestartMidDeltaFallback restarts a proxy after the config moved
// two versions: the restarted proxy advertises its stale disk-cache hash,
// which matches neither the observer's current content nor its previous
// version, so the observer must serve a full snapshot and the proxy must
// recover the latest value from it.
func TestProxyRestartMidDeltaFallback(t *testing.T) {
	r := newRig(t, 9)
	reg := obs.New()
	r.ens.SetObs(reg)
	r.proxy.Obs = reg
	r.proxy.Subscribe("/configs/app", func(Entry) {})
	r.write(t, "/configs/app", `v1`)
	r.net.RunFor(2 * time.Second)

	r.net.Fail(r.proxy.ID())
	// Two versions land while the proxy is down, so the observer's
	// previous-version delta base (v2) doesn't match the proxy's disk
	// cache (v1) either.
	r.write(t, "/configs/app", `v2`)
	r.write(t, "/configs/app", `v3`)
	fullBefore := reg.Counters().Get("zeus.fetch.full")
	r.net.Recover(r.proxy.ID())
	r.net.RunFor(5 * time.Second)

	e := r.proxy.Read("/configs/app")
	if !e.OK || string(e.Data) != "v3" {
		t.Fatalf("after restart, cache = %+v", e)
	}
	if full := reg.Counters().Get("zeus.fetch.full"); full <= fullBefore {
		t.Errorf("zeus.fetch.full = %d (was %d), want a full-snapshot reply", full, fullBefore)
	}
}

// TestWatchDeltaMissFallsBackToFetch injects a watch event whose delta was
// made against a version this proxy never saw; the proxy must not apply
// it, must count a fallback, and must recover via a full fetch.
func TestWatchDeltaMissFallsBackToFetch(t *testing.T) {
	r := newRig(t, 10)
	reg := obs.New()
	r.proxy.Obs = reg
	r.write(t, "/configs/app", `v1`)
	r.proxy.Want("/configs/app")
	r.net.RunFor(2 * time.Second)

	e := r.proxy.Read("/configs/app")
	phantom := []byte("a version this proxy never saw")
	forged := zeus.MsgWatchEvent{Update: zeus.Update{
		Path: "/configs/app", Version: e.Version + 1, Zxid: e.Zxid + 100,
		Payload: zeus.Payload{
			IsDelta:  true,
			Delta:    []byte("garbage"),
			BaseHash: vcs.HashBytes(phantom),
			NewHash:  vcs.HashBytes(phantom),
		},
	}}
	from := r.proxy.observer() // watch events from elsewhere are dropped
	r.net.After(0, func() {
		ctx := simnet.MakeContext(r.net, from)
		ctx.Send("proxy-1", forged)
	})
	r.net.RunFor(5 * time.Second)

	if fb := reg.Counters().Get("proxy.delta.fallback"); fb != 1 {
		t.Errorf("proxy.delta.fallback = %d, want 1", fb)
	}
	got := r.proxy.Read("/configs/app")
	if !got.OK || string(got.Data) != "v1" {
		t.Fatalf("after bad delta, cache = %+v", got)
	}
}

// TestSmallEditCrossesPlaneAsDelta: a small edit to a watched ~32 KB config
// crosses leader→observer→proxy as a delta on both hops. The wire cost is
// measured where it is paid — simnet's per-link byte counters — against
// what shipping the body each time would cost.
func TestSmallEditCrossesPlaneAsDelta(t *testing.T) {
	r := newRig(t, 11)
	reg := obs.New()
	r.ens.SetObs(reg)
	r.proxy.Obs = reg

	const path = "/configs/big"
	body := strings.Repeat("tier.web.option = \"steady-state-value\"\n", 840)
	render := func(rev int) string { return fmt.Sprintf("rev = %06d\n%s", rev, body) }
	r.write(t, path, render(0))
	r.proxy.Want(path)
	r.net.RunFor(5 * time.Second) // warm: the first fetch ships the full body

	leader, observer := r.ens.Leader(), r.proxy.observer()
	pushPlane := func() uint64 {
		return r.net.LinkBytes(leader, observer) + r.net.LinkBytes(observer, "proxy-1")
	}
	before := pushPlane()
	deltasBefore := reg.Counters().Get("zeus.push.delta")
	const edits = 6
	for i := 1; i <= edits; i++ {
		r.write(t, path, render(i))
	}
	res := r.proxy.Read(path)
	if !res.OK || string(res.Data) != render(edits) {
		t.Fatalf("proxy did not materialize the last edit: ok=%v, %d bytes", res.OK, len(res.Data))
	}

	// Two hops would each carry the body once per edit without deltas; the
	// gate is a quarter of ONE hop's worth, keep-alives included.
	wire, full := pushPlane()-before, uint64(len(render(0))*edits)
	if wire == 0 || wire*4 > full {
		t.Errorf("push plane carried %d bytes for %d edits of a %d-byte config, want (0, %d]",
			wire, edits, len(render(0)), full/4)
	}
	if d := reg.Counters().Get("zeus.push.delta") - deltasBefore; d < edits {
		t.Errorf("zeus.push.delta grew by %d, want >= %d (one per edit)", d, edits)
	}
	if fb := reg.Counters().Get("proxy.delta.fallback"); fb != 0 {
		t.Errorf("proxy.delta.fallback = %d, want 0", fb)
	}
}

// TestForgedFullWatchEventIsRefused: a whole-body watch event whose bytes do
// not hash to NewHash is never materialized — not in memory, not on disk, not
// to subscribers. The proxy charges the observer that sent it, moves off it,
// and keeps converging on what Zeus committed.
func TestForgedFullWatchEventIsRefused(t *testing.T) {
	r := newRig(t, 12)
	reg := obs.New()
	r.proxy.Obs = reg
	const path = "/configs/app"
	const evil = "bytes nobody committed"
	r.proxy.Subscribe(path, func(e Entry) {
		if string(e.Data) == evil {
			t.Errorf("forged body delivered to a subscriber")
		}
	})
	r.write(t, path, `v1`)

	e := r.proxy.Read(path)
	sender := r.proxy.observer() // watch events from elsewhere are dropped
	forged := zeus.MsgWatchEvent{Update: zeus.Update{
		Path: path, Version: e.Version + 1, Zxid: e.Zxid + 100,
		Payload: zeus.Payload{Full: []byte(evil), NewHash: vcs.HashBytes([]byte("v2"))},
	}}
	r.net.After(0, func() {
		ctx := simnet.MakeContext(r.net, sender)
		ctx.Send("proxy-1", forged)
	})
	r.net.RunFor(5 * time.Second)

	if n := reg.Counters().Get("proxy.payload.bad_full"); n != 1 {
		t.Errorf("proxy.payload.bad_full = %d, want 1", n)
	}
	if fb := reg.Counters().Get("proxy.delta.fallback"); fb != 0 {
		t.Errorf("proxy.delta.fallback = %d, want 0 (a bad body is not a delta miss)", fb)
	}
	if r.proxy.observer() == sender || r.proxy.Failovers != 1 {
		t.Errorf("still on %s after its forged body (failovers = %d)", sender, r.proxy.Failovers)
	}
	if got := r.proxy.Read(path); !got.OK || string(got.Data) != "v1" {
		t.Fatalf("after forged body, Read = %+v", got)
	}
	if d, ok := r.proxy.Disk().Load(path); !ok || string(d.Data) != "v1" {
		t.Fatalf("after forged body, disk = %+v, %v", d, ok)
	}

	r.write(t, path, `v2`)
	got := r.proxy.Read(path)
	if !got.OK || string(got.Data) != "v2" || got.Hash != vcs.HashBytes([]byte("v2")) {
		t.Fatalf("proxy did not converge on the committed bytes: %+v", got)
	}
}

// TestForgedFullFetchReplyIsRefused: the same for a fetch reply. The only
// observer answers the first fetch with a body that does not match its
// NewHash; the proxy serves nothing rather than the forgery, retries on the
// fetch backoff, and materializes the honest answer.
func TestForgedFullFetchReplyIsRefused(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 13)
	place := simnet.Placement{Region: "us", Cluster: "web"}
	const path = "/configs/app"
	const evil = "bytes nobody committed"
	good := []byte("the committed bytes")
	fetches := 0
	net.AddNode("obs-1", place, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
		switch m := msg.(type) {
		case zeus.MsgPing:
			ctx.Send(from, zeus.MsgPong{})
		case zeus.MsgFetch:
			fetches++
			body := good
			if fetches == 1 {
				body = []byte(evil)
			}
			ctx.Send(from, zeus.MsgFetchReply{ReqID: m.ReqID, Update: zeus.Update{Path: m.Path, Version: 1, Zxid: 7,
				Payload: zeus.Payload{Full: body, NewHash: vcs.HashBytes(good)}}})
		}
	}))
	px := New(net, "proxy-1", place, []simnet.NodeID{"obs-1"}, nil)
	reg := obs.New()
	px.Obs = reg
	px.Subscribe(path, func(e Entry) {
		if string(e.Data) == evil {
			t.Errorf("forged body delivered to a subscriber")
		}
	})

	net.RunFor(100 * time.Millisecond) // the forged reply has arrived; the retry has not fired
	if n := reg.Counters().Get("proxy.payload.bad_full"); n != 1 {
		t.Fatalf("proxy.payload.bad_full = %d, want 1", n)
	}
	if got := px.Read(path); got.OK {
		t.Fatalf("forged body is readable: %+v", got)
	}
	if d, ok := px.Disk().Load(path); ok {
		t.Fatalf("forged body reached the disk cache: %+v", d)
	}
	if st := px.ObserverHealth()["obs-1"]; st[health.MetricErrorRate] == 0 {
		t.Errorf("observer not charged for its forged body: %+v", st)
	}

	net.RunFor(10 * time.Second)
	if n := reg.Counters().Get("proxy.fetch.retry"); n != 1 {
		t.Errorf("proxy.fetch.retry = %d, want 1", n)
	}
	got := px.Read(path)
	if !got.OK || !bytes.Equal(got.Data, good) || got.Hash != vcs.HashBytes(good) {
		t.Fatalf("proxy did not converge on the committed bytes: %+v", got)
	}
	if d, ok := px.Disk().Load(path); !ok || !bytes.Equal(d.Data, good) || d.Hash != got.Hash {
		t.Fatalf("disk cache = %+v, %v", d, ok)
	}
}
