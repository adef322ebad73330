package experiments

import (
	"fmt"
	"strings"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/monitor"
	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// monitorOutcome is what the fleet-health scenario measured, all of it on
// the simulated clock: the continuous time-to-head distribution over a
// fleet, and the fire/clear latency of the convergence SLO alert around an
// injected observer outage. (That monitoring costs the read path nothing is
// asserted where the read path lives: the monitored cases of
// proxy.TestReadZeroAllocWarm and confclient.TestWarmGetZeroAlloc.)
type monitorOutcome struct {
	Proxies, Writes int
	// Samples is one time-to-head sample per (proxy, version).
	Samples                      int64
	TimeToHeadP50, TimeToHeadP99 time.Duration
	AlertsFired, AlertsCleared   int64
	// FireLatency: injected fault → convergence alert fired.
	// ClearLatency: fault healed → alert cleared.
	FireLatency, ClearLatency time.Duration
}

// monitorScenario lands ten writes on a healthy two-region fleet under a
// sweeping monitor, then kills one cluster's observers while writes
// continue, heals them, and waits for the alert to clear.
func monitorScenario(seed uint64) monitorOutcome {
	// ---- Convergence quantiles + alert latency on a real fleet.
	reg := obs.New()
	cfg := cluster.SmallConfig(2, seed)
	cfg.Obs = reg
	f := cluster.New(cfg)
	f.Net.RunFor(10 * time.Second)
	mon := f.AttachMonitor(monitor.Config{
		SweepEvery: time.Second,
		SLOs:       []*monitor.SLO{monitor.ConvergenceSLO(0.99, 2*time.Second)},
	})
	const fpath = "/monitor/knob.json"
	writer := zeus.NewClient("fleet-writer", f.Ensemble.Members)
	f.Net.AddNode("fleet-writer", simnet.Placement{Region: "us-west", Cluster: "ctrl"}, writer)
	land := func(rev int) {
		f.Net.After(0, func() {
			wctx := simnet.MakeContext(f.Net, "fleet-writer")
			writer.Write(&wctx, fpath,
				[]byte(fmt.Sprintf(`{"rev":%d}`, rev)), func(zeus.WriteResult) {})
		})
	}
	land(0)
	f.Net.RunFor(5 * time.Second)
	f.SubscribeAll(fpath)
	f.Net.RunFor(5 * time.Second)

	writes := 10
	for i := 1; i <= writes; i++ {
		land(i)
		f.Net.RunFor(3 * time.Second)
	}
	h := reg.Histogram(monitor.HistTimeToHead)
	out := monitorOutcome{
		Proxies:       len(f.AllServers()),
		Writes:        writes,
		Samples:       int64(h.Count()),
		TimeToHeadP50: h.Quantile(0.50),
		TimeToHeadP99: h.Quantile(0.99),
	}

	// Outage: kill uw1's distribution plane, keep writing so its proxies
	// fall behind; the convergence alert must fire, then clear after heal.
	faultAt := f.Net.Now()
	for _, id := range f.Observers("uw1") {
		f.Net.Fail(id)
	}
	for i := writes + 1; i <= writes+12; i++ {
		land(i)
		f.Net.RunFor(2 * time.Second)
	}
	var fired time.Time
	for _, a := range mon.Status().ActiveAlerts() {
		fired = a.FiredAt
	}
	healAt := f.Net.Now()
	for _, id := range f.Observers("uw1") {
		f.Net.Recover(id)
	}
	f.Net.RunFor(30 * time.Second)
	st := mon.Status()
	out.AlertsFired = reg.Counters().Get("monitor.alert.fired")
	out.AlertsCleared = reg.Counters().Get("monitor.alert.cleared")
	if !fired.IsZero() {
		out.FireLatency = fired.Sub(faultAt)
	}
	for _, a := range st.Alerts {
		if !a.Active() && a.ClearedAt.After(healAt) {
			out.ClearLatency = a.ClearedAt.Sub(healAt)
		}
	}
	return out
}

// Monitor reports the fleet-health plane: continuous convergence quantiles
// over a fleet and SLO alert fire/clear latency around an injected outage.
func Monitor(opts Options) Result {
	r := Result{ID: "monitor", Title: "Fleet-health monitoring: convergence quantiles, alert latency"}
	o := monitorScenario(opts.Seed)

	var b strings.Builder
	fmt.Fprintf(&b, "convergence over %d proxies, %d writes: time-to-head p50=%.1fms p99=%.1fms (%d samples)\n",
		o.Proxies, o.Writes, ms(o.TimeToHeadP50), ms(o.TimeToHeadP99), o.Samples)
	fmt.Fprintf(&b, "alerts: fired %d (latency %.0fms after fault), cleared %d (%.0fms after heal)\n",
		o.AlertsFired, ms(o.FireLatency), o.AlertsCleared, ms(o.ClearLatency))
	r.Text = b.String()

	r.metric("time_to_head_p50_ms", ms(o.TimeToHeadP50), 0, false)
	r.metric("time_to_head_p99_ms", ms(o.TimeToHeadP99), 0, false)
	r.metric("alert_fire_latency_ms", ms(o.FireLatency), 0, false)
	r.metric("alert_clear_latency_ms", ms(o.ClearLatency), 0, false)
	return r
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
