package proxy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// fetchedTrace builds a fresh rig on seed, subscribes the proxy to 12 paths,
// runs scenario, and returns one "(path, Fetched)" line per path. Every
// resubscribe sends once per watched path and each send draws its link jitter
// from the network's RNG, so the instants depend on the order of the walk.
func fetchedTrace(t *testing.T, seed uint64, scenario func(r *rig)) string {
	t.Helper()
	r := newRig(t, seed)
	var paths []string
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/configs/app%02d", i)
		paths = append(paths, path)
		r.write(t, path, "v1")
		r.proxy.Subscribe(path, func(Entry) {})
	}
	r.net.RunFor(2 * time.Second)
	scenario(r)
	var b strings.Builder
	for _, path := range paths {
		res := r.proxy.Read(path)
		if !res.OK || string(res.Data) != "v1" {
			t.Fatalf("%s after the scenario = %+v", path, res)
		}
		fmt.Fprintf(&b, "%s %d\n", path, res.Fetched.UnixNano())
	}
	return b.String()
}

func sameTraces(t *testing.T, runs int, scenario func(r *rig)) {
	t.Helper()
	first := fetchedTrace(t, 61, scenario)
	for i := 1; i < runs; i++ {
		if got := fetchedTrace(t, 61, scenario); got != first {
			t.Fatalf("same seed, run %d differs from run 0:\n%s\nrun 0:\n%s", i, got, first)
		}
	}
}

// TestResubscribeOrderDeterministic: a proxy watching several paths that
// loses its observer unwatches and refetches all of them; six same-seed runs
// must confirm every path at the same instants. Walking the watched set in map
// order made each run hand the jitter samples to different paths.
func TestResubscribeOrderDeterministic(t *testing.T) {
	sameTraces(t, 6, func(r *rig) {
		r.net.Partition(r.proxy.ID(), r.proxy.observer())
		r.net.RunFor(15 * time.Second)
		if r.proxy.Failovers == 0 {
			t.Fatal("the partition did not cause a failover")
		}
	})
}

// TestRestartAndHealResubscribeDeterministic: the same for the other two
// walks over every watched path — the refetch after a proxy restart, and the
// resubscribe when a dark plane heals.
func TestRestartAndHealResubscribeDeterministic(t *testing.T) {
	t.Run("restart", func(t *testing.T) {
		sameTraces(t, 2, func(r *rig) {
			r.proxy.Crash()
			r.net.RunFor(time.Second)
			r.proxy.Restart()
			r.net.RunFor(10 * time.Second)
		})
	})
	t.Run("plane heal", func(t *testing.T) {
		sameTraces(t, 2, func(r *rig) {
			r.net.Fail("obs-1")
			r.net.Fail("obs-2")
			r.net.RunFor(20 * time.Second)
			if !r.proxy.PlaneDown() {
				t.Fatal("plane not down")
			}
			r.net.Recover("obs-1")
			r.net.Recover("obs-2")
			r.net.RunFor(30 * time.Second)
			if r.proxy.PlaneDown() {
				t.Fatal("plane still down")
			}
		})
	})
}

// TestDeleteReachesProxy: a deleted path stops existing on a proxy that had
// it cached — pushed while the proxy is connected, and answered with the
// delete's zxid (the observer's tombstone) when the proxy was cut off during
// the delete and refetches afterwards — and a re-create lands on top.
func TestDeleteReachesProxy(t *testing.T) {
	const path = "/configs/app"
	remove := func(r *rig) {
		done := false
		r.net.After(0, func() {
			ctx := simnet.MakeContext(r.net, "tailer")
			r.client.Delete(&ctx, path, func(zeus.WriteResult) { done = true })
		})
		r.net.RunFor(5 * time.Second)
		if !done {
			t.Fatal("delete never committed")
		}
	}
	for _, cutOff := range []bool{false, true} {
		r := newRig(t, 62)
		r.write(t, path, "v1")
		var seen []bool
		r.proxy.Subscribe(path, func(e Entry) { seen = append(seen, e.Exists) })
		r.net.RunFor(2 * time.Second)
		if cutOff {
			r.net.Partition("proxy-1", "obs-1")
			r.net.Partition("proxy-1", "obs-2")
		}
		remove(r)
		if cutOff {
			if got := r.proxy.Read(path); !got.Exists {
				t.Fatalf("cut-off proxy already lost the path: %+v", got)
			}
			r.net.Heal("proxy-1", "obs-1")
			r.net.Heal("proxy-1", "obs-2")
			r.net.RunFor(40 * time.Second)
		}
		got := r.proxy.Read(path)
		if !got.OK || got.Exists || got.Zxid == 0 {
			t.Fatalf("cutOff=%v: after the delete, proxy serves %+v", cutOff, got)
		}
		if fmt.Sprint(seen) != "[true false]" {
			t.Fatalf("cutOff=%v: subscriber saw Exists = %v, want [true false]", cutOff, seen)
		}
		r.write(t, path, "v2")
		if got := r.proxy.Read(path); !got.Exists || string(got.Data) != "v2" {
			t.Fatalf("cutOff=%v: after the re-create, proxy serves %+v", cutOff, got)
		}
	}
}
