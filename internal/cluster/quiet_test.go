package cluster

import (
	"testing"
	"time"

	"configerator/internal/simnet"
)

// quietRun builds a SmallConfig fleet with perCluster servers per cluster,
// warms a watch on every proxy, and runs it quiet for 600 simulated seconds:
// it reports the events of the whole run and of its last 300 s. With crash,
// observer obs-uw1-0 is down from 100 s to 160 s into the run; watching
// reports how many proxies were on it.
func quietRun(t *testing.T, perCluster int, crash bool) (events, tail uint64, watching int) {
	t.Helper()
	f := New(SmallConfig(perCluster, 5))
	f.Net.RunFor(10 * time.Second)
	writeZeus(t, f, "/quiet/knob", "v1")
	f.SubscribeAll("/quiet/knob")
	f.Net.RunFor(10 * time.Second)
	const x = simnet.NodeID("obs-uw1-0")
	for _, s := range f.Cluster("uw1") {
		if f.Net.LinkBytes(x, s.ID) > 0 {
			watching++
		}
	}
	if crash {
		simnet.NewFaultPlan(
			simnet.WithCrash(100*time.Second, x),
			simnet.WithRestart(160*time.Second, x),
		).Apply(f.Net)
	}
	start := f.Net.Events
	f.Net.RunFor(300 * time.Second)
	mid := f.Net.Events
	f.Net.RunFor(300 * time.Second)
	return f.Net.Events - start, f.Net.Events - mid, watching
}

// TestQuietFleetCostFollowsFaultsNotFleetSize: a quiet fleet's events do not
// grow with its proxies (a proxy that pings every tick costs 90 events a
// simulated minute), and a fault costs events only for the proxies it
// touches, only while it holds. The fleets are SmallConfig at 30 and 150
// servers per cluster.
func TestQuietFleetCostFollowsFaultsNotFleetSize(t *testing.T) {
	small, _, _ := quietRun(t, 30, false)
	large, largeTail, _ := quietRun(t, 150, false)
	added := uint64(4 * (150 - 30))
	t.Logf("600 quiet sim-s: %d events at 120 proxies, %d at 600", small, large)
	if large > small+added || small > large+added {
		t.Errorf("quiet events %d at 600 proxies vs %d at 120: differ by more than one per added proxy (%d)",
			large, small, added)
	}

	crashed, crashedTail, watching := quietRun(t, 150, true)
	extra := int64(crashed) - int64(large)
	t.Logf("an observer down 60 s with %d proxies on it: %+d events; last 300 s %d vs %d quiet",
		watching, extra, crashedTail, largeTail)
	if watching == 0 {
		t.Fatal("no proxy watched obs-uw1-0")
	}
	// A proxy on the crashed observer pings until it fails over (three
	// ticks), re-points and refetches, and stands down once answered: about
	// ten events.
	const perProxy = 20
	if extra < 0 || extra > int64(perProxy*watching)+100 {
		t.Errorf("the crash added %d events, want at most %d for each of its %d proxies (plus the observer's own restart)",
			extra, perProxy, watching)
	}
	if d := int64(crashedTail) - int64(largeTail); d < -20 || d > 20 {
		t.Errorf("after the fault healed the fleet ran %d events per 300 s, %d without the fault", crashedTail, largeTail)
	}
}
