package cluster

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"configerator/internal/health"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

func newFleet(t *testing.T) *Fleet {
	t.Helper()
	f := New(SmallConfig(5, 42))
	f.Net.RunFor(10 * time.Second)
	if f.Ensemble.Leader() == "" {
		t.Fatal("no zeus leader")
	}
	return f
}

var writerSeq int

func writeZeus(t *testing.T, f *Fleet, path, data string) {
	t.Helper()
	writerSeq++
	id := simnet.NodeID(fmt.Sprintf("test-writer-%d", writerSeq))
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
	f.Net.RunFor(10 * time.Second)
}

func TestTopology(t *testing.T) {
	f := newFleet(t)
	if got := len(f.AllServers()); got != 20 {
		t.Errorf("servers = %d, want 20", got)
	}
	if got := len(f.ClusterNames()); got != 4 {
		t.Errorf("clusters = %v", f.ClusterNames())
	}
	for _, c := range f.ClusterNames() {
		if len(f.Observers(c)) != 2 {
			t.Errorf("cluster %s observers = %d", c, len(f.Observers(c)))
		}
		if len(f.Cluster(c)) != 5 {
			t.Errorf("cluster %s servers = %d", c, len(f.Cluster(c)))
		}
	}
}

func TestFleetWideDistribution(t *testing.T) {
	f := newFleet(t)
	f.SubscribeAll("/configs/app.json")
	writeZeus(t, f, "/configs/app.json", `{"v":1}`)
	for _, s := range f.AllServers() {
		cfg, err := s.Client.Get(context.Background(), "/configs/app.json")
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if cfg.Int("v", 0) != 1 {
			t.Fatalf("%s: v = %d", s.ID, cfg.Int("v", 0))
		}
	}
}

func TestBaselineHealth(t *testing.T) {
	f := newFleet(t)
	s := f.Sample(f.AllServers()[0].ID)
	if s[health.MetricErrorRate] != baseErrorRate || s[health.MetricLatencyMs] != baseLatencyMs {
		t.Errorf("baseline sample = %v", s)
	}
	if len(f.Sample("no-such-server")) != 0 {
		t.Error("unknown server should sample empty")
	}
}

func TestFaultMarkersMoveMetrics(t *testing.T) {
	f := newFleet(t)
	f.SubscribeAll("/configs/app.json")
	writeZeus(t, f, "/configs/app.json", `{"_fault":{"type":"error","intensity":1.0}}`)
	s := f.Sample(f.AllServers()[0].ID)
	if s[health.MetricErrorRate] <= baseErrorRate*5 {
		t.Errorf("error fault not reflected: %v", s[health.MetricErrorRate])
	}
}

func TestCanaryDeploymentInterface(t *testing.T) {
	f := newFleet(t)
	servers := f.Servers()
	test := servers[:3]
	f.DeployTemp(test, "/configs/new.json", []byte(`{"_fault":{"type":"log_spew","intensity":1.0}}`))
	// Test servers see the spew; control servers do not.
	testSample := f.Sample(test[0])
	controlSample := f.Sample(servers[10])
	if testSample[health.MetricLogSpew] <= controlSample[health.MetricLogSpew] {
		t.Errorf("override not visible: test=%v control=%v",
			testSample[health.MetricLogSpew], controlSample[health.MetricLogSpew])
	}
	f.Rollback(test, "/configs/new.json")
	after := f.Sample(test[0])
	if after[health.MetricLogSpew] != controlSample[health.MetricLogSpew] {
		t.Errorf("rollback did not restore health: %v", after[health.MetricLogSpew])
	}
}

func TestLoadFaultScalesWithBreadth(t *testing.T) {
	f := newFleet(t)
	data := []byte(`{"_fault":{"type":"load","intensity":1.0}}`)
	servers := f.Servers()
	// Narrow deployment: tiny latency shift.
	f.DeployTemp(servers[:1], "/configs/load.json", data)
	narrow := f.Sample(servers[0])[health.MetricLatencyMs]
	// Broad deployment: large shift on the same server.
	f.DeployTemp(servers[1:], "/configs/load.json", data)
	broad := f.Sample(servers[0])[health.MetricLatencyMs]
	if broad <= narrow*2 {
		t.Errorf("load fault did not scale with breadth: narrow=%v broad=%v", narrow, broad)
	}
}

// TestFaultMemoKeepsContentsApart: the app model decodes each content of a
// path once, and still tells the contents apart — a fault-marked canary
// override shows on exactly the servers holding it, a rollback clears it —
// and after every fleet-wide sample the memo holds exactly the contents some
// server's application reads, each counted once per server reading it.
func TestFaultMemoKeepsContentsApart(t *testing.T) {
	const path = "/configs/app.json"
	f := newFleet(t)
	f.SubscribeAll(path)
	writeZeus(t, f, path, `{"v":1}`)
	servers := f.Servers()
	errorRates := func(ctx string, faulty int) {
		t.Helper()
		for i, id := range servers {
			want := baseErrorRate
			if i < faulty {
				want *= 10
			}
			if got := f.Sample(id)[health.MetricErrorRate]; got != want {
				t.Fatalf("%s: server %d error rate = %v, want %v", ctx, i, got, want)
			}
		}
		reading := map[string]int{}
		for _, s := range f.AllServers() {
			if r := s.Proxy.Read(path); r.OK && r.Exists {
				reading[string(r.Data)]++
			}
		}
		memo := map[string]int{}
		for _, v := range f.byPath[path].versions {
			memo[string(v.data)] = v.n
		}
		if !maps.Equal(memo, reading) {
			t.Fatalf("%s: the memo holds %v (content: servers), the servers read %v", ctx, memo, reading)
		}
	}
	f.DeployTemp(servers[:4], path, []byte(`{"v":2,"_fault":{"type":"error","intensity":1.0}}`))
	errorRates("override on four servers", 4)
	errorRates("the same, from the memo", 4)
	f.Rollback(servers[:4], path)
	errorRates("after rollback", 0)

	writeZeus(t, f, path, `{"v":3,"_fault":{"type":"error","intensity":1.0}}`)
	errorRates("faulty version committed fleet-wide", len(servers))
	writeZeus(t, f, path, `{"v":4}`)
	errorRates("healthy version committed", 0)
}

// TestHeartbeatPathsRepeat: two same-seed runs of a monitored fleet send
// byte-identical heartbeats — every proxy lists its paths in one order, not
// in the order its path map happens to range.
func TestHeartbeatPathsRepeat(t *testing.T) {
	paths := []string{"/configs/a.json", "/configs/b.json", "/configs/c.json", "/configs/d.json", "/configs/e.json"}
	run := func() (string, int) {
		f := New(SmallConfig(2, 42))
		f.Net.RunFor(10 * time.Second)
		var log strings.Builder
		full := 0
		f.Net.AddNode("hb-recorder", simnet.Placement{Region: "us-west", Cluster: "uw1"},
			simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
				hb := msg.(proxy.MsgMonitorHeartbeat)
				fmt.Fprintf(&log, "%s %v\n", hb.Proxy, hb.Paths)
				if len(hb.Paths) == len(paths) {
					full++
				}
			}))
		for _, s := range f.AllServers() {
			s.Proxy.EnableMonitor("hb-recorder", time.Second)
		}
		for i, p := range paths {
			f.SubscribeAll(p)
			writeZeus(t, f, p, fmt.Sprintf(`{"v":%d}`, i))
		}
		return log.String(), full
	}
	a, full := run()
	b, _ := run()
	if full == 0 {
		t.Fatalf("no heartbeat listed all %d paths", len(paths))
	}
	if a != b {
		la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("same-seed heartbeats differ at #%d:\n  %s\n  %s", i, la[i], lb[i])
			}
		}
		t.Fatalf("same-seed heartbeat logs differ in length: %d vs %d lines", len(la), len(lb))
	}
}
