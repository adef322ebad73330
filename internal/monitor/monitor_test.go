package monitor_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/monitor"
	"configerator/internal/obs"
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
	seq++
	id := simnet.NodeID(fmt.Sprintf("mon-writer-%d", seq))
	cl := zeus.NewClient(id, f.Ensemble.Members)
	f.Net.AddNode(id, simnet.Placement{Region: "us-west", Cluster: "ctrl"}, cl)
	done := false
	f.Net.After(0, func() {
		ctx := simnet.MakeContext(f.Net, id)
		cl.Write(&ctx, path, []byte(data), func(zeus.WriteResult) { done = true })
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
	f.Net.RunFor(15 * time.Second)

	st := m.Status()
	if st.Sweeps == 0 {
		t.Fatal("no sweeps ran")
	}
	if st.Proxies != len(f.AllServers()) {
		t.Fatalf("proxies = %d, want %d", st.Proxies, len(f.AllServers()))
	}
	var ps *monitor.PathStatus
	for i := range st.Paths {
		if st.Paths[i].Path == testPath {
			ps = &st.Paths[i]
		}
	}
	if ps == nil {
		t.Fatalf("path %s not tracked: %+v", testPath, st.Paths)
	}
	if ps.Total != len(f.AllServers()) || ps.AtHead != ps.Total || ps.Fraction != 1 {
		t.Fatalf("converged fleet reported %+v", *ps)
	}
	if ps.HeadVersion == 0 || ps.HeadHash == 0 {
		t.Fatalf("watermark not folded: %+v", *ps)
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

	// Convergence curves were recorded as bounded series.
	s := reg.Series(monitor.SeriesPathPrefix + testPath)
	if s.Len() == 0 {
		t.Fatal("no per-path convergence samples")
	}
	if got := s.Samples(); got[len(got)-1].V != 1 {
		t.Fatalf("last convergence sample = %+v", got[len(got)-1])
	}
	if got := reg.Series(monitor.SeriesConverged).Samples(); len(got) == 0 || got[len(got)-1].V != 1 {
		t.Fatalf("fleet convergence samples = %+v", got)
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
	js := m.Status().JSON()
	for _, want := range []string{`"paths":[`, `"stragglers":[`, `"alerts":[`, `"fraction":1.0000`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON missing %q:\n%s", want, js)
		}
	}
	// Deterministic: same state renders identically.
	if js2 := m.Status().JSON(); js2 != js {
		t.Fatal("JSON rendering not deterministic")
	}
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
				_ = st.JSON()
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
	_ = st.JSON()
	_ = st.ActiveAlerts()
}
