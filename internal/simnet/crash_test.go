package simnet_test

import (
	"testing"
	"time"

	"configerator/internal/mobileconfig"
	"configerator/internal/monitor"
	"configerator/internal/packagevessel"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/tailer"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

// The crash rule is simnet's, so it is checked here against every role that
// keeps a periodic timer chain: a crash ends the node's life and every timer
// it armed, and Restarted starts exactly one new chain.

var place = simnet.Placement{Region: "us", Cluster: "c1"}

// sink is a node that ignores what it is sent.
var sink = simnet.HandlerFunc(func(*simnet.Context, simnet.NodeID, simnet.Message) {})

// chainRole is one role with a periodic timer chain: up stands it up, settled,
// on a fresh network and names its node.
type chainRole struct {
	name string
	up   func() (*simnet.Network, simnet.NodeID)
}

var chainRoles = []chainRole{
	{"zeus follower", func() (*simnet.Network, simnet.NodeID) {
		net, e := ensemble()
		for _, m := range e.Members {
			if m != e.Leader() {
				return net, m
			}
		}
		panic("no follower")
	}},
	{"zeus observer", func() (*simnet.Network, simnet.NodeID) {
		net, e := ensemble()
		e.AddObserver("obs", place)
		return net, "obs"
	}},
	{"vessel tracker", func() (*simnet.Network, simnet.NodeID) {
		net := simnet.New(simnet.DefaultLatency(), 1)
		packagevessel.NewTracker(net, "tracker", place)
		return net, "tracker"
	}},
	{"tailer poll", func() (*simnet.Network, simnet.NodeID) {
		net := simnet.New(simnet.DefaultLatency(), 1)
		net.AddNode("zeus", place, sink)
		tailer.New(net, "tailer", place, vcs.NewRepository("r"), []simnet.NodeID{"zeus"}, "/")
		return net, "tailer"
	}},
	{"mobileconfig device poll", func() (*simnet.Network, simnet.NodeID) {
		net := simnet.New(simnet.DefaultLatency(), 1)
		net.AddNode("server", place, sink)
		mobileconfig.NewDevice(net, "phone", place, "server", "app", 1, 0).SetPollInterval(10 * time.Second)
		return net, "phone"
	}},
	{"proxy monitor heartbeat", func() (*simnet.Network, simnet.NodeID) {
		net := simnet.New(simnet.DefaultLatency(), 1)
		net.AddNode("obs", place, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
			if _, ok := msg.(zeus.MsgPing); ok {
				ctx.Send(from, zeus.MsgPong{})
			}
		}))
		net.AddNode("mon", place, sink)
		proxy.New(net, "proxy", place, []simnet.NodeID{"obs"}, nil).EnableMonitor("mon", time.Second)
		return net, "proxy"
	}},
	{"monitor sweep", func() (*simnet.Network, simnet.NodeID) {
		net := simnet.New(simnet.DefaultLatency(), 1)
		m := monitor.New(monitor.Config{})
		m.Attach(net, place)
		return net, m.ID()
	}},
}

// ensemble is a three-member Zeus ensemble after its election.
func ensemble() (*simnet.Network, *zeus.Ensemble) {
	net := simnet.New(simnet.DefaultLatency(), 1)
	e := zeus.StartEnsemble(net, 3, []simnet.Placement{
		{Region: "us", Cluster: "zk1"}, {Region: "us", Cluster: "zk2"}, {Region: "eu", Cluster: "zk3"},
	})
	net.RunFor(10 * time.Second)
	return net, e
}

// script is what a test does to a role's node at an instant its chain ticks.
type script func(net *simnet.Network, id simnet.NodeID, period time.Duration)

// crashFor crashes the node for frac of its period.
func crashFor(frac float64) script {
	return func(net *simnet.Network, id simnet.NodeID, period time.Duration) {
		net.Fail(id)
		net.RunFor(time.Duration(frac * float64(period)))
		net.Recover(id)
	}
}

// timersAfter stands r up, steps it to an instant its chain ticks, runs s
// there, and counts the timers its handler hears (messages from itself,
// Restarted included) over the next ten periods.
func timersAfter(t *testing.T, r chainRole, s script) int {
	t.Helper()
	net, id := r.up()
	var ticks []time.Time
	net.Tap(id, func(ctx *simnet.Context, from simnet.NodeID, _ simnet.Message) {
		if from == ctx.Self() {
			ticks = append(ticks, ctx.Now())
		}
	})
	for len(ticks) < 3 {
		if !net.Step() {
			t.Fatalf("%s: the queue ran dry", r.name)
		}
	}
	period := ticks[2].Sub(ticks[1])
	if ticks[1].Sub(ticks[0]) != period || period <= 0 {
		t.Fatalf("%s: no steady chain: ticks at %v", r.name, ticks)
	}
	s(net, id, period)
	ticks = ticks[:0]
	net.RunFor(10 * period)
	return len(ticks)
}

// TestShortCrashLeavesOneChain: a crash shorter than a role's period leaves
// it exactly as many timers afterwards as a crash longer than the period —
// the timer armed before the crash died with it, and Restarted armed one
// chain.
func TestShortCrashLeavesOneChain(t *testing.T) {
	for _, r := range chainRoles {
		t.Run(r.name, func(t *testing.T) {
			short, long := timersAfter(t, r, crashFor(0.5)), timersAfter(t, r, crashFor(1.5))
			if short != long {
				t.Errorf("%d timers in ten periods after a half-period crash, %d after a longer one", short, long)
			}
			if long < 10 {
				t.Errorf("%d timers in ten periods after a restart: the chain did not restart", long)
			}
		})
	}
}

// TestCrashCallsAreIdempotent: Recover of a live node and Fail of a down one
// change nothing.
func TestCrashCallsAreIdempotent(t *testing.T) {
	recoverLive := func(net *simnet.Network, id simnet.NodeID, _ time.Duration) { net.Recover(id) }
	failTwice := func(net *simnet.Network, id simnet.NodeID, period time.Duration) {
		net.Fail(id)
		net.RunFor(period / 2)
		net.Fail(id)
		net.RunFor(period)
		net.Recover(id)
	}
	for _, r := range chainRoles {
		t.Run(r.name, func(t *testing.T) {
			quiet := timersAfter(t, r, func(*simnet.Network, simnet.NodeID, time.Duration) {})
			if got := timersAfter(t, r, recoverLive); got != quiet {
				t.Errorf("Recover of a live node: %d timers in ten periods, %d untouched", got, quiet)
			}
			once := timersAfter(t, r, crashFor(1.5))
			if got := timersAfter(t, r, failTwice); got != once {
				t.Errorf("Fail of a down node: %d timers in ten periods, %d after one Fail", got, once)
			}
		})
	}
}
