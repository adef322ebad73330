package proxy

import (
	"strings"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// TestPushTreeLatencyMatchesLinkModel guards the ~4.5 s tree-propagation
// calibration (§6.3): with configured hop latencies, the instrumented
// leader→observer→proxy push must measure exactly those hops.
//
// The link latencies are inflated to seconds so the hops dominate; that
// breaks multi-member consensus (probe RTT exceeds the 300 ms election
// window), so the calibrated topology uses a single-member ensemble, which
// self-elects at any latency (quorum = 1). The leader sits alone in region
// "us"; the observer and proxy share a cluster in region "eu", making
// leader→observer one cross-region hop (4 s) and observer→proxy one
// in-cluster hop (500 ms) — a 4.5 s commit-to-proxy total.
func TestPushTreeLatencyMatchesLinkModel(t *testing.T) {
	lat := simnet.LatencyModel{
		SameCluster: 500 * time.Millisecond,
		SameRegion:  2 * time.Second,
		CrossRegion: 4 * time.Second,
		Jitter:      0,
	}
	net := simnet.New(lat, 1)
	reg := obs.New()
	ens := zeus.StartEnsemble(net, 1, []simnet.Placement{{Region: "us", Cluster: "zk"}})
	ens.SetObs(reg)
	euPlace := simnet.Placement{Region: "eu", Cluster: "c1"}
	ens.AddObserver("obs-eu", euPlace)
	px := New(net, "srv-eu", euPlace, []simnet.NodeID{"obs-eu"}, nil)
	px.Obs = reg
	// Writer in the leader's cluster: the 1 s write RTT stays under the
	// 1.5 s client retry timeout.
	cl := zeus.NewClient("writer", ens.Members)
	net.AddNode("writer", simnet.Placement{Region: "us", Cluster: "zk"}, cl)

	net.RunFor(20 * time.Second)
	if ens.Leader() == "" {
		t.Fatal("single-member ensemble failed to self-elect")
	}

	const path = "/configs/calib.json"
	write := func(data string) {
		t.Helper()
		done := false
		net.After(0, func() {
			ctx := simnet.MakeContext(net, "writer")
			cl.Write(&ctx, path, []byte(data), func(zeus.WriteResult) { done = true })
		})
		for i := 0; i < 100 && !done; i++ {
			net.RunFor(time.Second)
		}
		if !done {
			t.Fatal("write never committed")
		}
	}

	// Establish the watch on v1 before measuring: the v2 delivery is then a
	// pure push down the tree, with no fetch round-trip in the measurement.
	write(`{"v":1}`)
	px.Want(path)
	net.RunFor(20 * time.Second)
	if !px.Read(path).OK {
		t.Fatal("proxy never fetched v1")
	}

	tr := reg.StartTrace("calib", net.Now())
	reg.BindPath(path, tr)
	write(`{"v":2}`)
	net.RunFor(20 * time.Second)
	tr.EndAt(net.Now())

	const tol = 50 * time.Millisecond
	assertHop := func(name string, want time.Duration) {
		t.Helper()
		h := reg.Histogram(name)
		if h.Count() != 1 {
			t.Fatalf("%s: %d observations, want 1", name, h.Count())
		}
		got := h.Quantile(1)
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %s, want %s ±%s", name, got, want, tol)
		}
	}
	assertHop(obs.HistHopLeaderObserver, 4*time.Second)
	assertHop(obs.HistHopObserverProxy, 500*time.Millisecond)
	assertHop(obs.HistCommitToProxy, 4500*time.Millisecond)

	// The application read after delivery measures commit-to-read.
	if !px.Read(path).OK {
		t.Fatal("proxy lost the config")
	}
	if h := reg.Histogram(obs.HistCommitToRead); h.Count() != 1 || h.Quantile(1) < 4500*time.Millisecond {
		t.Errorf("commit_to_read: n=%d max=%s", h.Count(), h.Quantile(1))
	}

	// The trace stitched the full hop chain.
	out := tr.Render()
	for _, want := range []string{"zeus.commit", "observer obs-eu", "proxy srv-eu"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}
