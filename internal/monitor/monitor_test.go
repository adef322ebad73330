package monitor_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/monitor"
	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// fleet stands up a small monitored fleet with an elected leader.
func fleet(t *testing.T, cfg monitor.Config) (*cluster.Fleet, *monitor.Monitor) {
	t.Helper()
	c := cluster.SmallConfig(2, 7)
	c.Obs = obs.New()
	f := cluster.New(c)
	f.Net.RunFor(10 * time.Second)
	if f.Ensemble.Leader() == "" {
		t.Fatal("no zeus leader")
	}
	m := f.AttachMonitor(cfg)
	return f, m
}

var seq int

func write(t *testing.T, f *cluster.Fleet, path, data string) {
	t.Helper()
	commit(t, f, func(cl *zeus.Client, ctx *simnet.Context, done func(zeus.WriteResult)) {
		cl.Write(ctx, path, []byte(data), done)
	})
}

func remove(t *testing.T, f *cluster.Fleet, path string) {
	t.Helper()
	commit(t, f, func(cl *zeus.Client, ctx *simnet.Context, done func(zeus.WriteResult)) {
		cl.Delete(ctx, path, done)
	})
}

// commit runs one client operation from a fresh writer node and waits for
// the ensemble to commit it.
func commit(t *testing.T, f *cluster.Fleet, op func(*zeus.Client, *simnet.Context, func(zeus.WriteResult))) {
	t.Helper()
	seq++
	id := simnet.NodeID(fmt.Sprintf("mon-writer-%d", seq))
	cl := zeus.NewClient(id, f.Ensemble.Members)
	f.Net.AddNode(id, simnet.Placement{Region: "us-west", Cluster: "ctrl"}, cl)
	done := false
	f.Net.After(0, func() {
		ctx := simnet.MakeContext(f.Net, id)
		op(cl, &ctx, func(zeus.WriteResult) { done = true })
	})
	for i := 0; i < 100 && !done; i++ {
		f.Net.RunFor(200 * time.Millisecond)
	}
	if !done {
		t.Fatal("zeus write never committed")
	}
}

const testPath = "/configs/mon.json"

func TestConvergenceTracking(t *testing.T) {
	f, m := fleet(t, monitor.Config{})
	f.SubscribeAll(testPath)
	write(t, f, testPath, `{"v":1}`)
	// The convergence curve, read a sweep at a time: it never falls, and
	// it ends with the whole fleet at head.
	var curve []float64
	for i := 0; i < 8; i++ {
		f.Net.RunFor(monitor.DefaultSweepEvery)
		curve = append(curve, pathStatus(t, m.Status(), testPath).Fraction)
	}
	if !slices.IsSorted(curve) || curve[len(curve)-1] != 1 {
		t.Fatalf("convergence curve = %v, want rising to 1", curve)
	}

	st := m.Status()
	if st.Sweeps == 0 {
		t.Fatal("no sweeps ran")
	}
	if st.Proxies != len(f.AllServers()) {
		t.Fatalf("proxies = %d, want %d", st.Proxies, len(f.AllServers()))
	}
	ps := pathStatus(t, st, testPath)
	if ps.Total != len(f.AllServers()) || ps.AtHead != ps.Total || ps.Fraction != 1 {
		t.Fatalf("converged fleet reported %+v", ps)
	}
	if ps.HeadVersion == 0 || ps.HeadHash == 0 {
		t.Fatalf("watermark not folded: %+v", ps)
	}
	if len(st.Stragglers) != 0 {
		t.Fatalf("stragglers on healthy fleet: %+v", st.Stragglers)
	}

	// The continuous propagation histogram saw one credit per proxy.
	reg := m.Registry()
	if got := reg.Histogram(monitor.HistTimeToHead).Count(); got != uint64(len(f.AllServers())) {
		t.Fatalf("time_to_head count = %d, want %d", got, len(f.AllServers()))
	}
	if p99 := reg.Histogram(monitor.HistTimeToHead).Quantile(0.99); p99 <= 0 || p99 > 10*time.Second {
		t.Fatalf("time_to_head p99 = %v", p99)
	}

}

func TestTimeToHeadCreditedOncePerVersion(t *testing.T) {
	f, m := fleet(t, monitor.Config{})
	f.SubscribeAll(testPath)
	write(t, f, testPath, `{"v":1}`)
	f.Net.RunFor(20 * time.Second) // many sweeps over the same version
	n := len(f.AllServers())
	if got := m.Registry().Histogram(monitor.HistTimeToHead).Count(); got != uint64(n) {
		t.Fatalf("count = %d after extra sweeps, want %d", got, n)
	}
	write(t, f, testPath, `{"v":2}`)
	f.Net.RunFor(15 * time.Second)
	if got := m.Registry().Histogram(monitor.HistTimeToHead).Count(); got != uint64(2*n) {
		t.Fatalf("count = %d after second version, want %d", got, 2*n)
	}
}

func TestStragglerDetection(t *testing.T) {
	f, m := fleet(t, monitor.Config{})
	f.SubscribeAll(testPath)
	write(t, f, testPath, `{"v":1}`)
	f.Net.RunFor(10 * time.Second)

	victim := f.AllServers()[0].ID
	f.Net.Fail(victim)
	write(t, f, testPath, `{"v":2}`)
	f.Net.RunFor(15 * time.Second) // beyond stragglerAge

	st := m.Status()
	if len(st.Stragglers) == 0 {
		t.Fatal("crashed proxy not named a straggler")
	}
	sg := st.Stragglers[0]
	if sg.Proxy != victim || sg.Path != testPath {
		t.Fatalf("straggler = %+v, want %s/%s", sg, victim, testPath)
	}
	if !sg.Silent {
		t.Fatalf("downed proxy not flagged silent: %+v", sg)
	}
	if sg.Lag < 10*time.Second {
		t.Fatalf("straggler lag = %v", sg.Lag)
	}

	// Recovery re-converges and empties the list.
	f.Net.Recover(victim)
	f.Net.RunFor(20 * time.Second)
	st = m.Status()
	if len(st.Stragglers) != 0 {
		t.Fatalf("stragglers after recovery: %+v", st.Stragglers)
	}
}

// TestDivergentReplicaIsNamed: a proxy reporting the head's zxid with
// different bytes is behind by no version, yet it is a straggler at once
// (not after stragglerAge), and status names it as diverged.
func TestDivergentReplicaIsNamed(t *testing.T) {
	f, m := fleet(t, monitor.Config{})
	f.SubscribeAll(testPath)
	write(t, f, testPath, `{"v":1}`)
	f.Net.RunFor(10 * time.Second)
	head := pathStatus(t, m.Status(), testPath)

	rogue := f.AllServers()[0].ID
	now := f.Net.Now()
	m.HandleMessage(nil, rogue, proxy.MsgMonitorHeartbeat{Proxy: rogue, At: now, Paths: []proxy.PathState{{
		Path: testPath, Version: head.HeadVersion, Zxid: head.HeadZxid, Hash: head.HeadHash + 1, Fetched: now,
	}}})
	m.Sweep(now)

	st := m.Status()
	if len(st.Stragglers) != 1 {
		t.Fatalf("stragglers = %+v, want the divergent %s alone", st.Stragglers, rogue)
	}
	if sg := st.Stragglers[0]; sg.Proxy != rogue || sg.Path != testPath || !sg.Divergent || sg.Silent {
		t.Fatalf("straggler = %+v, want %s/%s divergent", sg, rogue, testPath)
	}
	if ps := pathStatus(t, st, testPath); ps.AtHead != ps.Total-1 {
		t.Fatalf("%d/%d at head, want all but the divergent proxy", ps.AtHead, ps.Total)
	}
	if txt := st.Text(); !strings.Contains(txt, "diverged (same zxid, different bytes)") {
		t.Fatalf("Text does not name the divergence:\n%s", txt)
	}
	if js := statusJSON(t, st); !strings.Contains(js, `"divergent":true`) {
		t.Fatalf("JSON does not name the divergence:\n%s", js)
	}
}

func TestSLOAlertFiresAndClears(t *testing.T) {
	var transitions []monitor.Alert
	f, m := fleet(t, monitor.Config{
		SLOs:    []*monitor.SLO{monitor.ConvergenceSLO(0.99, 2*time.Second)},
		OnAlert: func(a monitor.Alert) { transitions = append(transitions, a) },
	})
	f.SubscribeAll(testPath)
	write(t, f, testPath, `{"v":1}`)
	f.Net.RunFor(10 * time.Second)
	if n := len(m.Status().Alerts); n != 0 {
		t.Fatalf("alerts on healthy fleet: %d", n)
	}

	victim := f.AllServers()[0].ID
	f.Net.Fail(victim)
	write(t, f, testPath, `{"v":2}`)
	f.Net.RunFor(30 * time.Second)

	st := m.Status()
	active := st.ActiveAlerts()
	if len(active) != 1 || active[0].SLO != "fleet-convergence" {
		t.Fatalf("active alerts = %+v", st.Alerts)
	}
	if got := active[0].Paths; len(got) != 1 || got[0] != testPath {
		t.Fatalf("alert paths = %v", got)
	}
	reg := m.Registry()
	if c := reg.Counters().Get("monitor.alert.fired"); c != 1 {
		t.Fatalf("monitor.alert.fired = %d", c)
	}

	f.Net.Recover(victim)
	f.Net.RunFor(30 * time.Second)
	st = m.Status()
	if n := len(st.ActiveAlerts()); n != 0 {
		t.Fatalf("alerts did not clear: %+v", st.ActiveAlerts())
	}
	if len(st.Alerts) != 1 || st.Alerts[0].ClearedAt.IsZero() {
		t.Fatalf("alert history = %+v", st.Alerts)
	}
	if c := reg.Counters().Get("monitor.alert.cleared"); c != 1 {
		t.Fatalf("monitor.alert.cleared = %d", c)
	}
	// OnAlert saw exactly the fire and the clear, in order.
	if len(transitions) != 2 || !transitions[0].Active() || transitions[1].Active() {
		t.Fatalf("transitions = %+v", transitions)
	}
}

// TestDeletedPathConverges: a delete is a head like any write. Once every
// proxy stops serving the path it is at head — no straggler, and an alert
// the delete fired clears — and a path written again is tracked from its
// new head.
func TestDeletedPathConverges(t *testing.T) {
	f, m := fleet(t, monitor.Config{
		SLOs: []*monitor.SLO{monitor.ConvergenceSLO(0.99, 2*time.Second)},
	})
	f.SubscribeAll(testPath)
	write(t, f, testPath, `{"v":1}`)
	f.Net.RunFor(10 * time.Second)
	n := len(f.AllServers())

	remove(t, f, testPath)
	f.Net.RunFor(60 * time.Second)
	st := m.Status()
	ps := pathStatus(t, st, testPath)
	if ps.AtHead != n || ps.Total != n {
		t.Fatalf("after delete: %d/%d at head, want %d/%d", ps.AtHead, ps.Total, n, n)
	}
	if len(st.Stragglers) != 0 {
		t.Fatalf("stragglers after a converged delete: %+v", st.Stragglers)
	}
	if active := st.ActiveAlerts(); len(active) != 0 {
		t.Fatalf("alerts still active after a converged delete: %+v", active)
	}
	deletedAt := ps.HeadZxid

	before := m.Registry().Histogram(monitor.HistTimeToHead).Count()
	write(t, f, testPath, `{"v":"again"}`)
	f.Net.RunFor(15 * time.Second)
	st = m.Status()
	ps = pathStatus(t, st, testPath)
	if ps.HeadZxid <= deletedAt || ps.HeadVersion == 0 || ps.AtHead != n || ps.Total != n {
		t.Fatalf("re-created path: %+v, want a written head past zxid %d at %d/%d", ps, deletedAt, n, n)
	}
	if len(st.Stragglers) != 0 || len(st.ActiveAlerts()) != 0 {
		t.Fatalf("re-created path: stragglers %+v, alerts %+v", st.Stragglers, st.ActiveAlerts())
	}
	if got := m.Registry().Histogram(monitor.HistTimeToHead).Count() - before; got != uint64(n) {
		t.Fatalf("re-created path credited %d times to head, want %d", got, n)
	}
}

// pathStatus returns path's row of st.
func pathStatus(t *testing.T, st monitor.Status, path string) monitor.PathStatus {
	t.Helper()
	for _, ps := range st.Paths {
		if ps.Path == path {
			return ps
		}
	}
	t.Fatalf("path %s not tracked: %+v", path, st.Paths)
	return monitor.PathStatus{}
}

func TestStatusRenderings(t *testing.T) {
	f, m := fleet(t, monitor.Config{})
	f.SubscribeAll(testPath)
	write(t, f, testPath, `{"v":1}`)
	f.Net.RunFor(15 * time.Second)

	txt := m.Status().Text()
	for _, want := range []string{"fleet status", "convergence:", testPath, "stragglers:", "alerts:", "(none)"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Text missing %q:\n%s", want, txt)
		}
	}
	js := statusJSON(t, m.Status())
	for _, want := range []string{`"paths":[`, `"stragglers":[]`, `"alerts":[]`, `"fraction":1.0000`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON missing %q:\n%s", want, js)
		}
	}
	// Deterministic: same state renders identically.
	if js2 := statusJSON(t, m.Status()); js2 != js {
		t.Fatal("JSON rendering not deterministic")
	}
}

// TestStatusJSONEscapes: paths, proxy ids, SLO names and alert paths
// holding control bytes, DEL, invalid UTF-8, quotes, backslashes, HTML
// metacharacters and U+2028 encode as valid JSON that decodes back to
// what the status held. Invalid UTF-8 cannot round-trip: encoding/json
// writes each invalid byte as U+FFFD, so that is what the decoded string
// must hold.
func TestStatusJSONEscapes(t *testing.T) {
	const s = "fix \x01 \x7f \xff \" \\ <&> \u2028 and \xff"
	want := string([]rune(s)) // each invalid byte → U+FFFD
	st := monitor.Status{
		Paths:      []monitor.PathStatus{{Path: s}},
		Stragglers: []monitor.Straggler{{Proxy: s, Path: s}},
		Alerts:     []monitor.Alert{{SLO: s, Paths: []string{s}}},
	}
	var got struct {
		Paths      []struct{ Path string }
		Stragglers []struct{ Proxy, Path string }
		Alerts     []struct {
			SLO   string
			Paths []string
		}
	}
	if err := json.Unmarshal([]byte(statusJSON(t, st)), &got); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{got.Paths[0].Path, got.Stragglers[0].Proxy, got.Stragglers[0].Path,
		got.Alerts[0].SLO, got.Alerts[0].Paths[0]} {
		if g != want {
			t.Errorf("decoded %q, want %q", g, want)
		}
	}
}

// statusJSON encodes st and fails the test unless the result is valid JSON.
func statusJSON(t *testing.T, st monitor.Status) string {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil || !json.Valid(data) {
		t.Fatalf("encoding status: %v\n%s", err, data)
	}
	return string(data)
}

// TestStatusConcurrentWithSweeps drives the fleet on one goroutine while
// hammering Status/Text/JSON from others — the documented concurrency
// contract, pinned under -race.
func TestStatusConcurrentWithSweeps(t *testing.T) {
	f, m := fleet(t, monitor.Config{
		SLOs: []*monitor.SLO{monitor.ConvergenceSLO(0.99, 2*time.Second)},
	})
	f.SubscribeAll(testPath)
	write(t, f, testPath, `{"v":1}`)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := m.Status()
				_ = st.Text()
				_, _ = json.Marshal(st)
				_ = st.ActiveAlerts()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		f.Net.RunFor(time.Second)
	}
	close(stop)
	wg.Wait()
}

func TestNilSafety(t *testing.T) {
	var m *monitor.Monitor
	m.Sweep(time.Unix(0, 0))
	m.Attach(nil, simnet.Placement{})
	if m.ID() != "" {
		t.Fatal("nil monitor has an id")
	}
	if m.Registry() != nil {
		t.Fatal("nil monitor has a registry")
	}
	_ = m.Config()
	st := m.Status()
	if st.Sweeps != 0 || len(st.Paths) != 0 {
		t.Fatalf("nil status = %+v", st)
	}
	_ = st.Text()
	_ = statusJSON(t, st)
	_ = st.ActiveAlerts()
}

// TestSweepsResumeAfterRestart: a monitor node that crashes and recovers
// keeps sweeping every SweepEvery, on one timer chain, whether the crash
// outlasts a sweep period or not.
func TestSweepsResumeAfterRestart(t *testing.T) {
	f, m := fleet(t, monitor.Config{})
	for _, down := range []time.Duration{5 * time.Second, 500 * time.Millisecond} {
		f.Net.RunFor(10 * time.Second)
		f.Net.Fail(m.ID())
		f.Net.RunFor(down)
		f.Net.Recover(m.ID())
		before := m.Status().Sweeps
		f.Net.RunFor(20 * time.Second)
		if got := m.Status().Sweeps - before; got != 10 {
			t.Errorf("down %v: %d sweeps in the 20 s after recovery, want 10", down, got)
		}
	}
}
