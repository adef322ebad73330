package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/monitor"
	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// availMonitor is the fleet-health plane's view of the outage: the SLO
// alerts that fired, the scripted outage windows each alert is checked
// against, and how quickly alerts cleared once the fleet reconverged after
// the last heal.
type availMonitor struct {
	Sweeps  int64
	Alerts  []availAlert
	Windows []availWindow
	// AllWindowsCovered: every scripted outage window overlapped an
	// active SLO alert (allowing burn-rate detection latency).
	AllWindowsCovered bool
	// AllAlertsCleared: no alert was still active at the end of the run.
	AllAlertsCleared bool
	// ClearedWithinSweeps is how long after the fleet itself reconverged
	// (following the final scripted heal, the 35s observer restart) the
	// last alert cleared, in sweeps — the monitor's deadline is two.
	ClearedWithinSweeps float64
	TimeToHeadP50Ms     float64
	TimeToHeadP99Ms     float64
}

// availAlert is one SLO alert, offsets from workload start.
type availAlert struct {
	SLO          string
	FiredOffMs   float64
	ClearedOffMs float64 // 0 while active
	Active       bool
	Paths        []string
}

// availWindow is one scripted outage interval and whether an SLO
// alert was active during it.
type availWindow struct {
	Kind    string
	Key     string
	StartMs float64
	EndMs   float64
	Covered bool
}

// availSide is the read outcomes under one policy: serve whatever layer has
// the path (stale-serve on), or refuse every read that is not fresh (off).
type availSide struct {
	Reads        int
	OK           int
	Availability float64
	// Staleness of reads served during the outage window: how far behind
	// the latest committed revision the served value was.
	StalenessP50Ms float64
	StalenessP99Ms float64
	DegradedReads  int64
	StaleReads     int64
	RefusedReads   int64
	PlaneDownSeen  int64
}

// availOutcome is what one run of the scripted outage measured, all of it
// on the simulated clock. A refusal happens inside a read and changes
// nothing else, and every read carries its Source, so the one run yields
// both sides: off counts as served only what on served fresh.
type availOutcome struct {
	on, off     availSide
	convergence time.Duration
	scripted    int
	fired       int
	counters    map[string]int64
	mon         availMonitor
}

// availSweepEvery is the monitor cadence the availability scenario runs
// at; the SLO grace and staleness bounds are sized to the fault timeline.
const (
	availSweepEvery    = 2 * time.Second
	availConvergeGrace = 5 * time.Second
	availMaxStaleAge   = 15 * time.Second
)

// availabilityScenario runs the scripted outage once. The fault timeline
// (offsets from the start of the read workload):
//
//	 5s  both observers of cluster uw1 crash (that cluster's distribution
//	     plane is gone until they restart)
//	 8s  us-east is partitioned from us-west — east observers keep serving
//	     their proxies, but stop receiving commits
//	10s  one ue1 proxy starts crash-looping mid-watch (down 2s, up 3s, ×2)
//	30s  the region partition heals (delta/full-snapshot catch-up)
//	35s  the uw1 observers restart (session re-registration + catch-up)
//
// Writes land every 2s until t=28s; reads hit every server every 500ms for
// 60s. Every scripted fault is asserted via the obs fault counters.
func availabilityScenario(seed uint64) availOutcome {
	reg := obs.New()
	cfg := cluster.SmallConfig(3, seed)
	cfg.Obs = reg
	f := cluster.New(cfg)
	f.Net.RunFor(10 * time.Second) // elect

	const path = "/avail/knob.json"
	writer := zeus.NewClient("avail-writer", f.Ensemble.Members)
	f.Net.AddNode("avail-writer", simnet.Placement{Region: "us-west", Cluster: "ctrl"}, writer)

	// Warm: land rev 0 and let every proxy fetch it with a watch.
	landRev := func(rev int64, done func(time.Time)) {
		f.Net.After(0, func() {
			ctx := simnet.MakeContext(f.Net, "avail-writer")
			data := []byte(fmt.Sprintf(`{"rev":%d}`, rev))
			writer.Write(&ctx, path, data, func(zeus.WriteResult) { done(f.Net.Now()) })
		})
	}
	warmed := false
	landRev(0, func(time.Time) { warmed = true })
	for i := 0; i < 40 && !warmed; i++ {
		f.Net.RunFor(500 * time.Millisecond)
	}
	f.SubscribeAll(path)
	f.Net.RunFor(5 * time.Second)

	// The fleet-health plane watches the same outage: convergence within
	// 5s for 99% of (path, proxy) pairs, degraded staleness under 15s.
	mon := f.AttachMonitor(monitor.Config{
		SweepEvery: availSweepEvery,
		SLOs: []*monitor.SLO{
			monitor.ConvergenceSLO(0.99, availConvergeGrace),
			monitor.StalenessSLO(0.99, availMaxStaleAge),
		},
	})

	// The scripted fault plan.
	east, west := groupByRegion(f)
	uw1Obs := f.Observers("uw1")
	looper := f.Cluster("ue1")[0].Proxy
	opts := []simnet.PlanOption{
		simnet.WithCrash(5*time.Second, uw1Obs[0]),
		simnet.WithCrash(5*time.Second, uw1Obs[1]),
		simnet.WithPartitionGroup(8*time.Second, east, west),
		simnet.WithCall(10*time.Second, "proxy-crash", looper.Crash),
		simnet.WithCall(12*time.Second, "proxy-restart", looper.Restart),
		simnet.WithCall(15*time.Second, "proxy-crash", looper.Crash),
		simnet.WithCall(17*time.Second, "proxy-restart", looper.Restart),
		simnet.WithHealGroup(30*time.Second, east, west),
		simnet.WithRestart(35*time.Second, uw1Obs[0]),
		simnet.WithRestart(35*time.Second, uw1Obs[1]),
	}
	plan := simnet.NewFaultPlan(opts...)
	plan.Apply(f.Net)

	// Write workload: a new revision every 2s until t=28s.
	commitAt := map[int64]time.Time{0: f.Net.Now()}
	var lastRev int64
	for i := int64(1); i <= 14; i++ {
		rev := i
		f.Net.After(time.Duration(rev)*2*time.Second, func() {
			landRev(rev, func(at time.Time) {
				commitAt[rev] = at
				if rev > lastRev {
					lastRev = rev
				}
			})
		})
	}

	// Read workload: every server, every 500ms, for 60s of virtual time.
	// Staleness is measured against the newest commit at read time during
	// the outage window [5s, 35s].
	var (
		on, off     availSide
		staleness   []time.Duration // of every read served in the outage
		freshStale  []time.Duration // of the fresh ones among them
		start       = f.Net.Now()
		healAt      = start.Add(35 * time.Second)
		convergence = time.Duration(-1)
	)
	latestCommitted := func(at time.Time) int64 {
		best := int64(-1)
		for rev, t := range commitAt {
			if !t.After(at) && rev > best {
				best = rev
			}
		}
		return best
	}
	var pump func()
	pump = func() {
		now := f.Net.Now()
		at := now.Sub(start)
		if at >= 60*time.Second {
			return
		}
		inOutage := at >= 5*time.Second && at <= 35*time.Second
		afterHeal := at > 35*time.Second
		sweepConverged := afterHeal
		for _, s := range f.AllServers() {
			on.Reads++
			v, err := s.Client.Get(context.Background(), path)
			if err != nil {
				sweepConverged = false
				continue
			}
			on.OK++
			if afterHeal && v.Int("rev", -1) != lastRev {
				sweepConverged = false
			}
			fresh := v.Source == proxy.SourceFresh
			if fresh {
				off.OK++
			} else {
				on.DegradedReads++
			}
			if v.Source == proxy.SourceStale {
				on.StaleReads++
			}
			if inOutage {
				var behind time.Duration
				if rev := v.Int("rev", -1); latestCommitted(now) > rev {
					behind = now.Sub(commitAt[rev+1])
				}
				staleness = append(staleness, behind)
				if fresh {
					freshStale = append(freshStale, behind)
				}
			}
		}
		if sweepConverged && convergence < 0 {
			convergence = now.Sub(healAt)
		}
		f.Net.After(500*time.Millisecond, pump)
	}
	f.Net.After(0, pump)
	f.Net.RunFor(62 * time.Second)

	// Convergence fallback: if the fleet had not yet converged when the
	// read pump ended, keep stepping until every server serves the final
	// committed revision.
	for step := 0; convergence < 0 && step < 240; step++ {
		all := true
		for _, s := range f.AllServers() {
			v, err := s.Client.Get(context.Background(), path)
			if err != nil || v.Int("rev", -1) != lastRev {
				all = false
				break
			}
		}
		if all {
			convergence = f.Net.Now().Sub(healAt)
			break
		}
		f.Net.RunFor(250 * time.Millisecond)
	}

	off.Reads = on.Reads
	off.RefusedReads = int64(off.Reads - off.OK)
	on.PlaneDownSeen = reg.Counters().Get("proxy.plane.down")
	on.fold(staleness)
	off.fold(freshStale)

	counters := make(map[string]int64)
	for _, k := range []string{
		"fault.injected", "fault.crash", "fault.restart",
		"fault.partition_group", "fault.heal_group", "fault.call",
	} {
		counters[k] = reg.Counters().Get(k)
	}
	return availOutcome{
		on:          on,
		off:         off,
		convergence: convergence,
		scripted:    plan.Len(),
		fired:       plan.Fired(),
		counters:    counters,
		mon:         foldMonitor(mon, plan, start, healAt, convergence),
	}
}

// fold fills in the side's availability and the staleness quantiles of the
// reads it served during the outage.
func (s *availSide) fold(staleness []time.Duration) {
	if s.Reads > 0 {
		s.Availability = float64(s.OK) / float64(s.Reads)
	}
	sort.Slice(staleness, func(i, j int) bool { return staleness[i] < staleness[j] })
	if n := len(staleness); n > 0 {
		s.StalenessP50Ms = staleness[n/2].Seconds() * 1e3
		s.StalenessP99Ms = staleness[n*99/100].Seconds() * 1e3
	}
}

// foldMonitor distills the monitor's run into the outcome's health
// section: alert timeline, per-window coverage, and clear latency.
func foldMonitor(mon *monitor.Monitor, plan *simnet.FaultPlan,
	start, healAt time.Time, convergence time.Duration) availMonitor {
	st := mon.Status()
	out := availMonitor{
		Sweeps:           st.Sweeps,
		AllAlertsCleared: true,
		TimeToHeadP50Ms:  st.TimeToHeadP50.Seconds() * 1e3,
		TimeToHeadP99Ms:  st.TimeToHeadP99.Seconds() * 1e3,
	}
	off := func(t time.Time) time.Duration { return t.Sub(start) }
	var lastClear time.Duration
	for _, a := range st.Alerts {
		aa := availAlert{
			SLO: a.SLO, Active: a.Active(), Paths: a.Paths,
			FiredOffMs: off(a.FiredAt).Seconds() * 1e3,
		}
		if a.Active() {
			out.AllAlertsCleared = false
		} else {
			aa.ClearedOffMs = off(a.ClearedAt).Seconds() * 1e3
			if c := off(a.ClearedAt); c > lastClear {
				lastClear = c
			}
		}
		out.Alerts = append(out.Alerts, aa)
	}

	// A burn-rate alert needs a few hot sweeps before it pages, so a
	// window counts as covered if an alert was active at any point within
	// [start, end + detection slack].
	slack := 3 * availSweepEvery
	out.AllWindowsCovered = true
	for _, w := range plan.OutageWindows() {
		aw := availWindow{
			Kind:    string(w.Kind),
			Key:     w.Key,
			StartMs: w.Start.Seconds() * 1e3,
			EndMs:   w.End.Seconds() * 1e3,
		}
		winEnd := w.End + slack
		if !w.Closed {
			winEnd = 1 << 62 // never healed: any later alert covers it
		}
		for _, a := range st.Alerts {
			fired := off(a.FiredAt)
			cleared := time.Duration(1 << 62)
			if !a.Active() {
				cleared = off(a.ClearedAt)
			}
			if fired <= winEnd && cleared >= w.Start {
				aw.Covered = true
				break
			}
		}
		if !aw.Covered {
			out.AllWindowsCovered = false
		}
		out.Windows = append(out.Windows, aw)
	}

	// The monitor's deadline: once the fleet itself has reconverged (which
	// takes `convergence` after the heal), alerts must clear within two
	// sweeps — plus one sweep+heartbeat of observation lag.
	if out.AllAlertsCleared && len(out.Alerts) > 0 && convergence >= 0 {
		sinceConverged := lastClear - healAt.Sub(start) - convergence
		out.ClearedWithinSweeps = float64(sinceConverged) / float64(availSweepEvery)
	}
	return out
}

// boolMetric renders an assertion as a 0/1 metric.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// groupByRegion splits every fleet node (servers, observers, ensemble
// members) into us-east vs everything-else, for the region partition.
func groupByRegion(f *cluster.Fleet) (east, west []simnet.NodeID) {
	var ids []simnet.NodeID
	ids = append(ids, f.Servers()...)
	for _, c := range f.ClusterNames() {
		ids = append(ids, f.Observers(c)...)
	}
	ids = append(ids, f.Ensemble.Members...)
	for _, id := range ids {
		if f.Net.Placement(id).Region == "us-east" {
			east = append(east, id)
		} else {
			west = append(west, id)
		}
	}
	return east, west
}

// Availability runs the graceful-degradation experiment (paper §4.1: "the
// availability of the configuration management system should be higher
// than that of the applications it supports"): continuous reads across the
// fleet while observers crash, a region partitions, and a proxy
// crash-loops — counted with stale-serve on (the paper's choice:
// availability over freshness) and as if every non-fresh read were refused.
func Availability(opts Options) Result {
	r := Result{ID: "availability", Title: "Read availability under infrastructure faults (stale-serve on vs off)"}

	out := availabilityScenario(opts.Seed)

	var b strings.Builder
	fmt.Fprintf(&b, "scripted faults: %d (fired %d; fault.injected=%d)\n\n",
		out.scripted, out.fired, out.counters["fault.injected"])
	fmt.Fprintf(&b, "%-16s %10s %10s %14s %14s %10s\n",
		"mode", "reads", "ok", "availability", "stale p99", "refused")
	row := func(name string, s availSide) {
		fmt.Fprintf(&b, "%-16s %10d %10d %13.2f%% %12.0fms %10d\n",
			name, s.Reads, s.OK, s.Availability*100, s.StalenessP99Ms, s.RefusedReads)
	}
	row("stale-serve on", out.on)
	row("stale-serve off", out.off)
	fmt.Fprintf(&b, "\nconvergence after heal: %s\n", out.convergence.Round(time.Millisecond))
	fmt.Fprintf(&b, "\nfleet-health monitor (%d sweeps): %d alerts, windows covered=%t, cleared=%t\n",
		out.mon.Sweeps, len(out.mon.Alerts), out.mon.AllWindowsCovered, out.mon.AllAlertsCleared)
	for _, a := range out.mon.Alerts {
		fmt.Fprintf(&b, "  %-28s fired @%6.1fs cleared @%6.1fs paths=%s\n",
			a.SLO, a.FiredOffMs/1e3, a.ClearedOffMs/1e3, strings.Join(a.Paths, ","))
	}
	r.Text = b.String()

	r.metric("availability_stale_serve_on", out.on.Availability, 1.0, true)
	r.metric("availability_stale_serve_off", out.off.Availability, 0, false)
	r.metric("outage_staleness_p50_ms", out.on.StalenessP50Ms, 0, false)
	r.metric("outage_staleness_p99_ms", out.on.StalenessP99Ms, 0, false)
	r.metric("convergence_after_heal_ms", ms(out.convergence), 0, false)
	r.metric("faults_fired", float64(out.fired), float64(out.scripted), true)
	r.metric("slo_alerts_fired", float64(len(out.mon.Alerts)), 1, true)
	r.metric("slo_windows_covered", boolMetric(out.mon.AllWindowsCovered), 1, true)
	r.metric("slo_alerts_cleared", boolMetric(out.mon.AllAlertsCleared), 1, true)
	r.metric("slo_cleared_within_sweeps", out.mon.ClearedWithinSweeps, 2, false)
	return r
}
