package canary

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"configerator/internal/health"
	"configerator/internal/simnet"
)

// fakeFleet implements Deployment: servers whose error rate jumps when they
// run a config containing the token "BAD", and whose latency grows with the
// fraction of the fleet running a config containing "LOAD" (the paper's
// Type II load error, invisible at small scale).
type fakeFleet struct {
	servers    []simnet.NodeID
	deployed   map[simnet.NodeID]string // server -> temp config content
	rolledBack []simnet.NodeID          // every Rollback's servers, in call order
}

func newFakeFleet(n int) *fakeFleet {
	f := &fakeFleet{deployed: make(map[simnet.NodeID]string)}
	for i := 0; i < n; i++ {
		f.servers = append(f.servers, simnet.NodeID(fmt.Sprintf("web-%d", i)))
	}
	return f
}

func (f *fakeFleet) Servers() []simnet.NodeID { return f.servers }

func (f *fakeFleet) DeployTemp(servers []simnet.NodeID, path string, data []byte) {
	for _, s := range servers {
		f.deployed[s] = string(data)
	}
}

func (f *fakeFleet) Rollback(servers []simnet.NodeID, path string) {
	for _, s := range servers {
		delete(f.deployed, s)
	}
	f.rolledBack = append(f.rolledBack, servers...)
}

func (f *fakeFleet) loadFraction() float64 {
	n := 0
	for _, cfg := range f.deployed {
		if strings.Contains(cfg, "LOAD") {
			n++
		}
	}
	return float64(n) / float64(len(f.servers))
}

func (f *fakeFleet) Sample(server simnet.NodeID) health.Sample {
	s := health.Sample{
		health.MetricErrorRate: 0.010,
		health.MetricCrashRate: 0.001,
		health.MetricLogSpew:   100,
		health.MetricLatencyMs: 50,
		health.MetricCTR:       0.050,
	}
	cfg := f.deployed[server]
	if strings.Contains(cfg, "BAD") {
		s[health.MetricErrorRate] = 0.10 // 10x errors
		s[health.MetricLogSpew] = 5000   // log spew
	}
	// A LOAD config overloads a shared backend: latency rises for the
	// whole fleet in proportion to deployment breadth, so only a
	// large-scale phase can see the relative difference... actually the
	// backend hurts everyone; what the canary sees is absolute latency
	// growth on the test group due to cache misses on the rare path.
	if strings.Contains(cfg, "LOAD") {
		s[health.MetricLatencyMs] = 50 * (1 + 4*f.loadFraction())
	}
	return s
}

func run(t *testing.T, fleet *fakeFleet, spec Spec, data string) (Report, *Runner) {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), 1)
	r := NewRunner(net, fleet)
	var report Report
	got := false
	r.Run(spec, []byte(data), func(rep Report) { report = rep; got = true })
	net.RunFor(time.Hour)
	if !got {
		t.Fatal("canary never finished")
	}
	return report, r
}

func spec2(path string, p1, p2 int) Spec {
	checks := []Check{
		{Metric: health.MetricErrorRate, HigherIsWorse: true, Tolerance: 0.10},
		{Metric: health.MetricLatencyMs, HigherIsWorse: true, Tolerance: 0.20},
		{Metric: health.MetricCTR, HigherIsWorse: false, Tolerance: 0.05},
	}
	return Spec{ConfigPath: path, Phases: []Phase{
		{Name: "p1", TestServers: p1, Duration: 4 * time.Minute, Checks: checks},
		{Name: "p2", TestServers: p2, Duration: 6 * time.Minute, Checks: checks},
	}}
}

// TestRollbackInDeploymentOrder: a rollback fires application callbacks on
// each server it reaches, so it must reach them in one order on every
// same-seed run — the order the phases deployed to them.
func TestRollbackInDeploymentOrder(t *testing.T) {
	fleet := newFakeFleet(100)
	run(t, fleet, spec2("/c", 5, 40), `{"ok":true}`)
	if len(fleet.rolledBack) != 40 {
		t.Fatalf("rolled back %d servers, want 40", len(fleet.rolledBack))
	}
	for i, s := range fleet.rolledBack {
		if s != fleet.servers[i] {
			t.Fatalf("rollback #%d reached %s, want %s (deployment order)", i, s, fleet.servers[i])
		}
	}
}

func TestGoodConfigPasses(t *testing.T) {
	fleet := newFakeFleet(1000)
	report, r := run(t, fleet, spec2("/c", 20, 500), `{"ok":true}`)
	if !report.Passed || len(report.Phases) != 2 {
		t.Fatalf("report = %+v", report)
	}
	if r.Passes != 1 || r.Aborts != 0 {
		t.Errorf("Passes=%d Aborts=%d", r.Passes, r.Aborts)
	}
	// Temporary deploys must be rolled back even on success; the real
	// commit arrives through the normal distribution path.
	if len(fleet.deployed) != 0 {
		t.Errorf("deploys not cleaned up: %d", len(fleet.deployed))
	}
	// ~10 minutes end to end, like the paper.
	if d := report.Finished.Sub(report.Started); d != 10*time.Minute {
		t.Errorf("Finished - Started = %v", d)
	}
}

func TestBadConfigAbortsInPhase1(t *testing.T) {
	fleet := newFakeFleet(1000)
	report, r := run(t, fleet, spec2("/c", 20, 500), `{"BAD":true}`)
	if report.Passed {
		t.Fatal("bad config passed canary")
	}
	if len(report.Phases) != 1 || report.Phases[0].Passed {
		t.Fatalf("phases = %+v", report.Phases)
	}
	if !strings.Contains(report.Phases[0].FailedCheck, health.MetricErrorRate) {
		t.Errorf("FailedCheck = %s", report.Phases[0].FailedCheck)
	}
	if r.Aborts != 1 {
		t.Errorf("Aborts = %d", r.Aborts)
	}
	if len(fleet.deployed) != 0 {
		t.Error("rollback did not clear deploys")
	}
}

func TestLoadErrorOnlyCaughtAtClusterScale(t *testing.T) {
	// Phase 1 (20 of 1000 servers): load fraction 2%, latency +~8% —
	// within tolerance. Phase 2 (500 servers): fraction 50%, latency
	// +200% — caught. This is the §6.4 incident that motivated adding the
	// cluster-scale canary phase.
	fleet := newFakeFleet(1000)
	report, _ := run(t, fleet, spec2("/c", 20, 500), `{"LOAD":true}`)
	if report.Passed {
		t.Fatal("load error escaped the canary")
	}
	if len(report.Phases) != 2 {
		t.Fatalf("expected failure in phase 2, phases = %+v", report.Phases)
	}
	if !report.Phases[0].Passed {
		t.Error("phase 1 should have missed the load issue")
	}
	if report.Phases[1].Passed {
		t.Error("phase 2 should have caught the load issue")
	}
	if !strings.Contains(report.Phases[1].FailedCheck, health.MetricLatencyMs) {
		t.Errorf("FailedCheck = %s", report.Phases[1].FailedCheck)
	}
}

func TestCTRDirectionality(t *testing.T) {
	// A config that tanks CTR must fail the lower-is-worse check.
	fleet := newFakeFleet(100)
	spec := Spec{ConfigPath: "/c", Phases: []Phase{{
		Name: "p1", TestServers: 10, Duration: time.Minute,
		Checks: []Check{{Metric: health.MetricCTR, HigherIsWorse: false, Tolerance: 0.05}},
	}}}
	// Patch the fleet: servers with "CTRDROP" config lose clicks.
	orig := fleet.Sample
	_ = orig
	report, _ := runWithSampler(t, fleet, spec, `{"CTRDROP":true}`,
		func(server simnet.NodeID) health.Sample {
			s := fleet.Sample(server)
			if strings.Contains(fleet.deployed[server], "CTRDROP") {
				s[health.MetricCTR] = 0.040 // -20%
			}
			return s
		})
	if report.Passed {
		t.Fatal("CTR drop passed")
	}
}

type samplerFleet struct {
	*fakeFleet
	sampler func(simnet.NodeID) health.Sample
}

func (s *samplerFleet) Sample(server simnet.NodeID) health.Sample { return s.sampler(server) }

func runWithSampler(t *testing.T, fleet *fakeFleet, spec Spec, data string,
	sampler func(simnet.NodeID) health.Sample) (Report, *Runner) {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), 1)
	r := NewRunner(net, &samplerFleet{fakeFleet: fleet, sampler: sampler})
	var report Report
	got := false
	r.Run(spec, []byte(data), func(rep Report) { report = rep; got = true })
	net.RunFor(time.Hour)
	if !got {
		t.Fatal("canary never finished")
	}
	return report, r
}

func TestCheckEvaluate(t *testing.T) {
	hi := Check{Metric: "m", HigherIsWorse: true, Tolerance: 0.1}
	if !hi.Evaluate(health.Comparison{Valid: true, RelDelta: 0.05}) {
		t.Error("within tolerance should pass")
	}
	if hi.Evaluate(health.Comparison{Valid: true, RelDelta: 0.2}) {
		t.Error("beyond tolerance should fail")
	}
	if hi.Evaluate(health.Comparison{Valid: false}) {
		t.Error("invalid comparison must fail")
	}
	lo := Check{Metric: "ctr", HigherIsWorse: false, Tolerance: 0.05}
	if !lo.Evaluate(health.Comparison{Valid: true, RelDelta: 0.5}) {
		t.Error("CTR increase should pass")
	}
	if lo.Evaluate(health.Comparison{Valid: true, RelDelta: -0.2}) {
		t.Error("CTR drop should fail")
	}
}

func TestDefaultSpecShape(t *testing.T) {
	s := DefaultSpec("/configs/x", 2000)
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %d", len(s.Phases))
	}
	if s.Phases[0].TestServers != 20 || s.Phases[1].TestServers != 2000 {
		t.Errorf("test servers = %d, %d", s.Phases[0].TestServers, s.Phases[1].TestServers)
	}
	total := s.Phases[0].Duration + s.Phases[1].Duration
	if total != 10*time.Minute {
		t.Errorf("total duration = %v, want 10m (the paper's canary time)", total)
	}
}
