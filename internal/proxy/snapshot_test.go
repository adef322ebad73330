package proxy

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// TestReadZeroAllocWarm: a warm in-memory Read is one atomic snapshot load
// plus map lookups — zero heap allocations. This is the proxy half of the
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
		})
	}
}

// TestReadMissWarmsViaMissQueue: a reader-goroutine miss cannot touch the
// simulator directly, so Read parks the path in the miss set; the proxy
// drains it on its next tick and the config becomes warm without any
// explicit Want.
func TestReadMissWarmsViaMissQueue(t *testing.T) {
	r := newRig(t, 32)
	r.write(t, "/configs/lazy", `{"x":9}`)
	if res := r.proxy.Read("/configs/lazy"); res.OK {
		t.Fatal("unexpected hit before warm-up")
	}
	// One ping interval later the miss has been drained and fetched.
	r.net.RunFor(4 * time.Second)
	res := r.proxy.Read("/configs/lazy")
	if !res.OK || res.Source != SourceFresh || string(res.Data) != `{"x":9}` {
		t.Fatalf("read after miss-drain = %+v", res)
	}
}

// TestSnapshotImmutableDuringReads runs goroutine readers against the full
// writer surface — pushed updates, overrides set/clear, crash/restart —
// under the race detector. Readers must always observe a coherent entry:
// either a complete committed version or a complete override, never a
// torn mix.
func TestSnapshotImmutableDuringReads(t *testing.T) {
	r := newRig(t, 33)
	const path = "/configs/app"
	r.write(t, path, `{"x":1}`)
	r.proxy.Want(path)
	r.net.RunFor(2 * time.Second)

	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				res := r.proxy.Read(path)
				if res.OK && res.Exists {
					if len(res.Data) == 0 {
						t.Error("torn read: OK entry with empty data")
						return
					}
					if res.Version != -1 && res.Zxid == 0 {
						t.Errorf("torn read: committed entry with zero zxid: %+v", res.Entry)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}

	for i := 2; i <= 4; i++ {
		r.write(t, path, fmt.Sprintf(`{"x":%d}`, i))
	}
	r.proxy.SetOverride(path, []byte(`{"x":100}`))
	r.net.RunFor(500 * time.Millisecond)
	r.proxy.ClearOverride(path)
	r.net.RunFor(500 * time.Millisecond)
	r.proxy.Crash()
	r.net.RunFor(2 * time.Second)
	r.proxy.Restart()
	r.net.RunFor(5 * time.Second)
	r.write(t, path, `{"x":5}`)

	close(stop)
	wg.Wait()

	res := r.proxy.Read(path)
	if !res.OK || string(res.Data) != `{"x":5}` {
		t.Fatalf("final read = %+v", res)
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
