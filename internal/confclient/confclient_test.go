package confclient

import (
	"context"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

func newStack(t *testing.T) (*simnet.Network, *zeus.Client, *Client, *proxy.Proxy) {
	t.Helper()
	net, _, wc, cl, px := newStackEns(t)
	return net, wc, cl, px
}

// newStackEns is newStack for tests that also need the ensemble (to attach
// a monitor to its commit watermarks).
func newStackEns(t *testing.T) (*simnet.Network, *zeus.Ensemble, *zeus.Client, *Client, *proxy.Proxy) {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), 42)
	ens := zeus.StartEnsemble(net, 3, []simnet.Placement{
		{Region: "us", Cluster: "zk1"},
		{Region: "us", Cluster: "zk2"},
		{Region: "eu", Cluster: "zk3"},
	})
	ens.AddObserver("obs-1", simnet.Placement{Region: "us", Cluster: "web"})
	wc := zeus.NewClient("tailer", ens.Members)
	net.AddNode("tailer", simnet.Placement{Region: "us", Cluster: "ctrl"}, wc)
	net.RunFor(10 * time.Second)
	px := proxy.New(net, "proxy-1", simnet.Placement{Region: "us", Cluster: "web"},
		[]simnet.NodeID{"obs-1"}, nil)
	return net, ens, wc, New(px), px
}

func write(t *testing.T, net *simnet.Network, wc *zeus.Client, path, data string) {
	t.Helper()
	done := false
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "tailer")
		wc.Write(&ctx, path, []byte(data), func(zeus.WriteResult) { done = true })
	})
	for i := 0; i < 100 && !done; i++ {
		net.RunFor(200 * time.Millisecond)
	}
	if !done {
		t.Fatal("write never committed")
	}
	net.RunFor(5 * time.Second)
}

func TestTypedGetters(t *testing.T) {
	net, wc, cl, px := newStack(t)
	write(t, net, wc, "/configs/app", `{"batch":64,"name":"cache"}`)
	px.Want("/configs/app")
	net.RunFor(2 * time.Second)
	cfg, err := cl.Get(context.Background(), "/configs/app")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Int("batch", 0) != 64 {
		t.Error("Int")
	}
	if cfg.String("name", "") != "cache" {
		t.Error("String")
	}
	// Defaults on missing fields.
	if cfg.Int("nope", 7) != 7 || cfg.String("nope", "d") != "d" {
		t.Error("defaults")
	}
	// Defaults on mistyped fields.
	if cfg.String("batch", "d") != "d" || cfg.Int("name", 9) != 9 {
		t.Error("mistyped defaults")
	}
}

func TestGetUnknown(t *testing.T) {
	_, _, cl, _ := newStack(t)
	if _, err := cl.Get(context.Background(), "/configs/unknown"); err == nil {
		t.Fatal("expected error for unknown config")
	}
}

func TestWatchFiresOnChange(t *testing.T) {
	net, wc, cl, _ := newStack(t)
	write(t, net, wc, "/configs/app", `{"v":1}`)
	var seen []int64
	cl.Watch(context.Background(), "/configs/app", func(c *Value) {
		seen = append(seen, c.Int("v", -1))
	})
	net.RunFor(2 * time.Second)
	write(t, net, wc, "/configs/app", `{"v":2}`)
	write(t, net, wc, "/configs/app", `{"v":3}`)
	if len(seen) < 3 || seen[len(seen)-1] != 3 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestNonObjectJSONDoesNotBreak(t *testing.T) {
	net, wc, cl, px := newStack(t)
	write(t, net, wc, "/configs/arr", `[1,2,3]`)
	px.Want("/configs/arr")
	net.RunFor(2 * time.Second)
	cfg, err := cl.Get(context.Background(), "/configs/arr")
	if err != nil {
		t.Fatal(err)
	}
	if string(cfg.Raw) != "[1,2,3]" {
		t.Errorf("Raw = %s", cfg.Raw)
	}
	if len(cfg.fields) != 0 {
		t.Error("array config should expose no fields")
	}
}

func TestAvailabilityThroughDiskCache(t *testing.T) {
	net, wc, cl, px := newStack(t)
	write(t, net, wc, "/configs/app", `{"v":1}`)
	px.Want("/configs/app")
	net.RunFor(2 * time.Second)

	// A healthy read is marked fresh.
	cfg, err := cl.Get(context.Background(), "/configs/app")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Source != proxy.SourceFresh {
		t.Errorf("healthy read source = %q, want fresh", cfg.Source)
	}

	// Everything dies: observer and proxy. The read still succeeds,
	// through the disk cache.
	net.Fail("obs-1")
	net.Fail(px.ID())
	net.RunFor(1 * time.Second)
	cfg, err = cl.Get(context.Background(), "/configs/app")
	if err != nil {
		t.Fatalf("disk-cache fallback failed: %v", err)
	}
	if cfg.Int("v", 0) != 1 {
		t.Errorf("stale value = %d, want 1", cfg.Int("v", 0))
	}
	if cfg.Source != proxy.SourceStale {
		t.Errorf("outage read source = %q, want stale", cfg.Source)
	}
	if cfg.Age <= 0 {
		t.Errorf("outage read age = %v, want > 0", cfg.Age)
	}
}

// TestGetCancelledContext: a cancelled context fails fast without touching
// the proxy.
func TestGetCancelledContext(t *testing.T) {
	_, _, cl, _ := newStack(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Get(ctx, "/configs/app"); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWatchCancellation: after ctx is cancelled the callback stops firing
// and the proxy-side registration is pruned — no leak across restarts.
func TestWatchCancellation(t *testing.T) {
	net, wc, cl, px := newStack(t)
	write(t, net, wc, "/configs/app", `{"v":1}`)
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	cl.Watch(ctx, "/configs/app", func(*Value) { fired++ })
	net.RunFor(2 * time.Second)
	write(t, net, wc, "/configs/app", `{"v":2}`)
	if fired < 2 {
		t.Fatalf("watch fired %d times before cancel", fired)
	}
	cancel()
	before := fired
	write(t, net, wc, "/configs/app", `{"v":3}`)
	if fired != before {
		t.Errorf("watch fired after cancel (%d -> %d)", before, fired)
	}
	if n := px.SubCount("/configs/app"); n != 0 {
		t.Errorf("proxy still holds %d subscriptions after cancel", n)
	}
	// A cancelled-context Watch never registers at all.
	cl.Watch(ctx, "/configs/app", func(*Value) { fired++ })
	if n := px.SubCount("/configs/app"); n != 0 {
		t.Errorf("cancelled Watch registered a subscription (%d)", n)
	}
}

// TestDegradedReadObservesStaleAge: degraded reads feed the staleness
// histogram the fleet-health SLOs bound; fresh reads never touch it.
func TestDegradedReadObservesStaleAge(t *testing.T) {
	net, wc, cl, px := newStack(t)
	reg := obs.New()
	cl.SetObs(reg)
	write(t, net, wc, "/configs/app", `{"v":1}`)
	px.Want("/configs/app")
	net.RunFor(2 * time.Second)
	if _, err := cl.Get(context.Background(), "/configs/app"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram("confclient.read.stale_age").Count(); n != 0 {
		t.Fatalf("fresh read observed stale age (count=%d)", n)
	}

	net.Fail("obs-1")
	net.RunFor(10 * time.Second) // plane declared down
	cfg, err := cl.Get(context.Background(), "/configs/app")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Source == proxy.SourceFresh {
		t.Fatalf("read still fresh with observer dead")
	}
	h := reg.Histogram("confclient.read.stale_age")
	if h.Count() == 0 {
		t.Fatal("degraded read did not observe stale age")
	}
	if h.Max() <= 0 {
		t.Fatalf("stale age max = %v", h.Max())
	}
}
