package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

var update = flag.Bool("update", false, "rewrite golden files")

// livenessRecorder samples the fleet after every simulated event and writes
// one line per liveness decision, stamped with the simulated instant:
//
//	= <ns> ...  a decision taken on a tick: failover (with the observer
//	            chosen), plane down, a watch prune, the fetch a miss drain sends
//	~ <ns> ...  a decision taken when a reply arrives: plane heal, a
//	            restarted proxy's refetch landing
//
// "=" lines must match the golden file exactly. "~" lines may drift by one
// proxy↔observer round trip: each message draws its latency jitter from the
// network's shared stream, so a run that sends fewer messages shifts the
// arrivals after them.
type livenessRecorder struct {
	f     *Fleet
	reg   *obs.Registry
	start time.Time
	lines []string

	current   map[simnet.NodeID]simnet.NodeID // inferred observer of each proxy ("" = unknown)
	failovers map[simnet.NodeID]uint64
	planeDown map[simnet.NodeID]bool
	cached    map[simnet.NodeID]int
	pruned    int64

	missed map[simnet.NodeID]uint64 // proxy → its fetch count when a scripted cold read missed
}

func newLivenessRecorder(f *Fleet, reg *obs.Registry, start time.Time) *livenessRecorder {
	r := &livenessRecorder{f: f, reg: reg, start: start,
		current:   make(map[simnet.NodeID]simnet.NodeID),
		failovers: make(map[simnet.NodeID]uint64),
		planeDown: make(map[simnet.NodeID]bool),
		cached:    make(map[simnet.NodeID]int),
		missed:    make(map[simnet.NodeID]uint64),
		pruned:    reg.Counters().Get("zeus.observer.watch_pruned"),
	}
	for _, s := range f.AllServers() {
		// A proxy that fetched was answered by its observer only: fetch
		// replies are the sized messages on the observer→proxy link.
		for _, o := range f.Observers(s.Placement.Cluster) {
			if f.Net.LinkBytes(o, s.ID) > 0 {
				r.current[s.ID] = o
			}
		}
		r.failovers[s.ID] = s.Proxy.Failovers
		r.cached[s.ID] = len(s.Proxy.CachedPaths())
	}
	return r
}

func (r *livenessRecorder) emit(kind string, format string, args ...any) {
	at := r.f.Net.Now().Sub(r.start).Nanoseconds()
	r.lines = append(r.lines, fmt.Sprintf("%s %012d %s", kind, at, fmt.Sprintf(format, args...)))
}

// other is the cluster's observer that is not o (clusters run two).
func (r *livenessRecorder) other(s *Server, o simnet.NodeID) simnet.NodeID {
	for _, c := range r.f.Observers(s.Placement.Cluster) {
		if c != o {
			return c
		}
	}
	return ""
}

// sample records every decision taken since the previous sample.
func (r *livenessRecorder) sample() {
	for _, s := range r.f.AllServers() {
		px := s.Proxy
		for r.failovers[s.ID] < px.Failovers {
			r.failovers[s.ID]++
			if cur := r.current[s.ID]; cur != "" {
				r.current[s.ID] = r.other(s, cur)
			}
			to := r.current[s.ID]
			if to == "" {
				to = "?" // never fetched: its observer is unknown
			}
			r.emit("=", "failover %s -> %s", s.ID, to)
		}
		if down := px.PlaneDown(); down != r.planeDown[s.ID] {
			r.planeDown[s.ID] = down
			if down {
				r.emit("=", "plane.down %s", s.ID)
			} else {
				r.emit("~", "plane.heal %s", s.ID)
			}
		}
		if n := len(px.CachedPaths()); n != r.cached[s.ID] {
			if n > r.cached[s.ID] && !px.Down() && r.cached[s.ID] == 0 {
				r.emit("~", "refetch.landed %s", s.ID)
			}
			r.cached[s.ID] = n
		}
		if n, ok := r.missed[s.ID]; ok && px.Fetches > n {
			delete(r.missed, s.ID)
			r.emit("=", "miss.fetch %s", s.ID)
		}
	}
	if n := r.reg.Counters().Get("zeus.observer.watch_pruned"); n != r.pruned {
		r.emit("=", "watch_pruned %d", n-r.pruned)
		r.pruned = n
	}
}

// miss reads a path the proxy has never cached, from the simulation loop,
// and arms the recorder for the fetch that drains it.
func (r *livenessRecorder) miss(s *Server, path string) {
	r.missed[s.ID] = s.Proxy.Fetches
	if res := s.Proxy.Read(path); res.OK {
		panic("cold read hit: " + path)
	}
}

// TestLivenessMatchesPingModel scripts every fault the proxy's liveness
// detection reacts to and pins the simulated instant of each decision it
// takes against a golden file: an observer crash and restart, a proxy crash
// and restart (and a later partition on its new tick grid), two-way and
// one-way proxy↔observer partitions (one landing exactly on a tick, before
// it and after it), loss on that link, a 5 s latency spike, a whole
// cluster's observers down then healed, a leader crash, and cold reads
// drained by the miss queue. The golden file was recorded with a proxy that
// pinged its observer on every tick; a liveness model that only
// materialises ticks when something can change must reproduce it.
func TestLivenessMatchesPingModel(t *testing.T) {
	reg := obs.New()
	cfg := SmallConfig(3, 7)
	cfg.Obs = reg
	f := New(cfg)
	start := f.Net.Now()
	at := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	f.Net.RunFor(10 * time.Second) // elect

	const path = "/live/a"
	writer := zeus.NewClient("live-writer", f.Ensemble.Members)
	f.Net.AddNode("live-writer", simnet.Placement{Region: "us-west", Cluster: "ctrl"}, writer)
	f.Net.After(0, func() {
		ctx := simnet.MakeContext(f.Net, "live-writer")
		writer.Write(&ctx, path, []byte(`{"v":1}`), nil)
	})
	f.Net.RunFor(at(2.5))
	// Cluster ue1 watches nothing, so its whole-cluster outage is pure
	// keep-alive: no fetch retries, whose backoff draws jitter.
	for _, c := range []string{"uw1", "uw2", "ue2"} {
		for _, s := range f.Cluster(c) {
			s.Proxy.Want(path)
		}
	}
	f.Net.RunFor(at(2.5)) // t = 15 s: every watching proxy is warm and quiet
	rec := newLivenessRecorder(f, reg, start)

	srv := func(id string) *Server { return f.byID[simnet.NodeID(id)] }
	cur := func(id string) simnet.NodeID {
		o := rec.current[simnet.NodeID(id)]
		if o == "" {
			t.Fatalf("no known observer for %s", id)
		}
		return o
	}
	call := func(s float64, label string, fn func()) simnet.PlanOption {
		return simnet.WithCall(at(s)-15*time.Second, label, fn)
	}
	// onTick runs fn at a tick instant, but from an event scheduled after
	// that tick was: the tick's ping leaves before the fault lands.
	onTick := func(s float64, label string, fn func()) simnet.PlanOption {
		return call(s-0.5, label, func() { f.Net.After(500*time.Millisecond, fn) })
	}
	var observerX simnet.NodeID
	var leader simnet.NodeID
	ue1 := f.Observers("ue1")
	plan := simnet.NewFaultPlan(
		// An observer crash and restart: its proxies fail over on their
		// third tick; on its first tick back it prunes their sessions.
		call(20.3, "observer-crash", func() { observerX = cur("srv-uw1-0"); f.Net.Fail(observerX) }),
		call(31.7, "observer-restart", func() { f.Net.Recover(observerX) }),
		// A proxy crash and restart: its observer prunes it while it is
		// down; back up, it ticks on a grid anchored at the restart.
		simnet.WithCrash(at(40.6)-15*time.Second, "srv-uw2-0"),
		simnet.WithRestart(at(53.1)-15*time.Second, "srv-uw2-0"),
		call(60.4, "restarted-partition", func() { f.Net.Partition("srv-uw2-0", cur("srv-uw2-0")) }),
		call(70.0, "restarted-heal", func() { f.Net.Heal("srv-uw2-0", rec.other(srv("srv-uw2-0"), cur("srv-uw2-0"))) }),
		// A two-way partition.
		call(75.3, "partition", func() { f.Net.Partition("srv-uw2-1", cur("srv-uw2-1")) }),
		call(90.0, "heal", func() { f.Net.Heal("srv-uw2-1", rec.other(srv("srv-uw2-1"), cur("srv-uw2-1"))) }),
		// One-way proxy→observer cuts landing exactly on a tick: after the
		// tick's ping left, and before it.
		onTick(92.0, "oneway-after-tick", func() { f.Net.PartitionOneWay("srv-uw2-2", cur("srv-uw2-2")) }),
		call(100.0, "oneway-before-tick", func() { f.Net.PartitionOneWay("srv-ue2-0", cur("srv-ue2-0")) }),
		// A one-way observer→proxy cut: pings arrive, pongs do not.
		call(107.7, "oneway-reply", func() { f.Net.PartitionOneWay(cur("srv-uw1-1"), "srv-uw1-1") }),
		// Loss 0.5 on the link for one tick: never two misses in a row.
		call(113.5, "loss", func() { f.Net.SetLoss("srv-ue2-1", cur("srv-ue2-1"), 0.5) }),
		call(114.5, "loss-clear", func() { f.Net.SetLoss("srv-ue2-1", cur("srv-ue2-1"), 0) }),
		// A 5 s latency spike on the proxy→observer link for 10 s.
		call(120.3, "spike", func() { f.Net.SetLinkLatency("srv-ue2-2", cur("srv-ue2-2"), 5*time.Second) }),
		call(130.3, "spike-clear", func() {
			f.Net.SetLinkLatency("srv-ue2-2", rec.other(srv("srv-ue2-2"), cur("srv-ue2-2")), 0)
		}),
		// A whole cluster's observers down, then healed.
		simnet.WithCrash(at(140.5)-15*time.Second, ue1[0]),
		simnet.WithCrash(at(140.5)-15*time.Second, ue1[1]),
		simnet.WithRestart(at(160.9)-15*time.Second, ue1[0]),
		simnet.WithRestart(at(160.9)-15*time.Second, ue1[1]),
		// A leader crash: observers keep serving, proxies notice nothing.
		call(170.2, "leader-crash", func() { leader = f.Ensemble.Leader(); f.Net.Fail(leader) }),
		call(180.0, "leader-restart", func() { f.Net.Recover(leader) }),
		// Cold reads, drained by the miss queue on the next tick — on the
		// start-up grid and on a restarted proxy's grid.
		call(185.37, "miss", func() { rec.miss(srv("srv-uw1-2"), "/live/cold-1") }),
		call(190.4, "miss-restarted", func() { rec.miss(srv("srv-uw2-0"), "/live/cold-2") }),
	)
	plan.Apply(f.Net)

	end := start.Add(200 * time.Second)
	for f.Net.Now().Before(end) && f.Net.Step() {
		if f.Net.Now().After(end) {
			break
		}
		rec.sample()
	}
	if plan.Fired() != plan.Len() {
		t.Fatalf("plan fired %d of %d", plan.Fired(), plan.Len())
	}

	got := strings.Join(rec.lines, "\n") + "\n"
	golden := filepath.Join("testdata", "liveness.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	lat := simnet.DefaultLatency()
	rtt := 2 * time.Duration(float64(lat.SameCluster)*(1+lat.Jitter))
	if diff := compareLiveness(string(want), got, rtt); diff != "" {
		t.Errorf("liveness decisions differ from %s (= exact, ~ within %v):\n%s\ngot:\n%s", golden, rtt, diff, got)
	}
}

// compareLiveness matches recorded lines against the golden ones: "=" lines
// byte for byte, "~" lines by text with instants at most tol apart.
func compareLiveness(want, got string, tol time.Duration) string {
	type line struct {
		kind, text string
		at         int64
	}
	parse := func(s string) (exact []string, approx []line) {
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			f := strings.SplitN(l, " ", 3)
			if len(f) < 3 {
				continue
			}
			if f[0] == "=" {
				exact = append(exact, l)
				continue
			}
			at, _ := strconv.ParseInt(f[1], 10, 64)
			approx = append(approx, line{f[0], f[2], at})
		}
		sort.SliceStable(approx, func(i, j int) bool { return approx[i].text < approx[j].text })
		return exact, approx
	}
	we, wa := parse(want)
	ge, ga := parse(got)
	var diff []string
	for i := 0; i < max(len(we), len(ge)); i++ {
		var w, g string
		if i < len(we) {
			w = we[i]
		}
		if i < len(ge) {
			g = ge[i]
		}
		if w != g {
			diff = append(diff, fmt.Sprintf("  want %q\n  got  %q", w, g))
		}
	}
	for i := 0; i < max(len(wa), len(ga)); i++ {
		switch {
		case i >= len(wa):
			diff = append(diff, fmt.Sprintf("  extra ~ %d %s", ga[i].at, ga[i].text))
		case i >= len(ga):
			diff = append(diff, fmt.Sprintf("  missing ~ %d %s", wa[i].at, wa[i].text))
		case wa[i].text != ga[i].text || time.Duration(abs(wa[i].at-ga[i].at)) > tol:
			diff = append(diff, fmt.Sprintf("  want ~ %d %s\n  got  ~ %d %s", wa[i].at, wa[i].text, ga[i].at, ga[i].text))
		}
	}
	return strings.Join(diff, "\n")
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
