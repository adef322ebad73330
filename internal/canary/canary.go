// Package canary implements the automated Canary Service (§3.3, Figure 3).
//
// A config is associated with a canary spec describing multiple testing
// phases — e.g. phase 1 tests on 20 servers, phase 2 on a full cluster with
// thousands of servers (the cluster-scale phase was added after a
// load-related incident the small phase could not catch, §6.4). For each
// phase the spec names the target servers, the healthcheck metrics, and the
// pass/fail predicates. The service temporarily deploys the new config via
// the proxies on the test servers, waits, compares test-group metrics
// against the rest of the fleet, and either proceeds to the next phase or
// aborts and rolls back. Only after every phase passes is the change handed
// to the landing strip for the real commit.
package canary

import (
	"fmt"
	"time"

	"configerator/internal/health"
	"configerator/internal/simnet"
)

// Check is one pass/fail predicate over a metric comparison.
type Check struct {
	Metric string
	// HigherIsWorse selects the direction: true for error rates and
	// latency, false for CTR-like goodness metrics.
	HigherIsWorse bool
	// Tolerance is the maximum allowed relative degradation, e.g. 0.05
	// for "no more than 5% worse than control".
	Tolerance float64
}

// Evaluate applies the check to a comparison.
func (c Check) Evaluate(cmp health.Comparison) bool {
	if !cmp.Valid {
		return false // no data is a failure: never ship blind
	}
	if c.HigherIsWorse {
		return cmp.RelDelta <= c.Tolerance
	}
	return -cmp.RelDelta <= c.Tolerance
}

// Phase is one staged rollout step.
type Phase struct {
	Name string
	// TestServers is how many servers receive the temporary deploy
	// (0 = all servers selected by Cluster).
	TestServers int
	// Cluster, when set, targets a specific cluster ("in phase 2, test in
	// a full cluster with thousands of servers"). Requires the deployment
	// to implement ClusterTargeter.
	Cluster string
	// Duration is how long the phase soaks before metrics are compared.
	// The paper's end-to-end canary takes about ten minutes.
	Duration time.Duration
	Checks   []Check
}

// Spec is a config's canary specification.
type Spec struct {
	ConfigPath string
	Phases     []Phase
}

// DefaultSpec mirrors the paper's two-phase scheme: 20 servers, then a
// full cluster, roughly ten minutes end to end.
func DefaultSpec(configPath string, clusterSize int) Spec {
	checks := []Check{
		{Metric: health.MetricErrorRate, HigherIsWorse: true, Tolerance: 0.10},
		{Metric: health.MetricCrashRate, HigherIsWorse: true, Tolerance: 0.05},
		{Metric: health.MetricLogSpew, HigherIsWorse: true, Tolerance: 0.50},
		{Metric: health.MetricLatencyMs, HigherIsWorse: true, Tolerance: 0.20},
		{Metric: health.MetricCTR, HigherIsWorse: false, Tolerance: 0.05},
	}
	return Spec{
		ConfigPath: configPath,
		Phases: []Phase{
			{Name: "small-sample", TestServers: 20, Duration: 4 * time.Minute, Checks: checks},
			{Name: "full-cluster", TestServers: clusterSize, Duration: 6 * time.Minute, Checks: checks},
		},
	}
}

// Deployment is the canary service's view of the fleet: it can temporarily
// deploy to proxies, roll back, and sample health metrics. Implemented by
// the cluster simulation.
type Deployment interface {
	// Servers returns the candidate fleet (the canary picks test subsets
	// from the front).
	Servers() []simnet.NodeID
	// DeployTemp pushes the config to the given servers' proxies.
	DeployTemp(servers []simnet.NodeID, path string, data []byte)
	// Rollback clears the temporary deployment.
	Rollback(servers []simnet.NodeID, path string)
	// Collector samples server health.
	health.Collector
}

// ClusterTargeter is optionally implemented by deployments that can
// enumerate the servers of one cluster, enabling cluster-targeted phases.
type ClusterTargeter interface {
	ServersIn(cluster string) []simnet.NodeID
}

// PhaseReport is one phase's outcome.
type PhaseReport struct {
	Name        string
	Passed      bool
	FailedCheck string
	Comparisons []health.Comparison
	TestServers int
}

// Report is a full canary run's outcome.
type Report struct {
	ConfigPath string
	Passed     bool
	Phases     []PhaseReport
	Started    time.Time
	Finished   time.Time
}

// Runner executes canary specs on a simnet's virtual clock.
type Runner struct {
	net *simnet.Network
	dep Deployment

	// Aborts counts canary runs that failed and rolled back.
	Aborts int
	// Passes counts canary runs that passed every phase.
	Passes int
}

// finish records a completed run's outcome and delivers the report.
func (r *Runner) finish(report *Report, done func(Report)) {
	report.Finished = r.net.Now()
	if report.Passed {
		r.Passes++
	} else {
		r.Aborts++
	}
	done(*report)
}

// NewRunner returns a canary runner over the deployment.
func NewRunner(net *simnet.Network, dep Deployment) *Runner {
	return &Runner{net: net, dep: dep}
}

// Run executes the spec asynchronously on the network's event loop; done
// receives the final report. The caller must drive the network.
func (r *Runner) Run(spec Spec, data []byte, done func(Report)) {
	report := &Report{ConfigPath: spec.ConfigPath, Started: r.net.Now(), Passed: true}
	r.runPhase(spec, data, 0, &deployment{has: make(map[simnet.NodeID]bool)}, report, done)
}

// deployment is the servers a run has temporarily deployed to, in the order
// it deployed them. A rollback fires application callbacks, so it walks that
// order: same-seed runs fire them the same way.
type deployment struct {
	order []simnet.NodeID
	has   map[simnet.NodeID]bool
}

func (r *Runner) runPhase(spec Spec, data []byte, idx int, deployed *deployment, report *Report, done func(Report)) {
	if idx >= len(spec.Phases) {
		// All phases passed: clear the temporary deploys; the real commit
		// follows through the landing strip and reaches everyone.
		r.dep.Rollback(deployed.order, spec.ConfigPath)
		r.finish(report, done)
		return
	}
	phase := spec.Phases[idx]
	fleet := r.dep.Servers()
	// Select this phase's test group: a specific cluster when targeted,
	// else the front of the fleet.
	var test []simnet.NodeID
	if phase.Cluster != "" {
		ct, ok := r.dep.(ClusterTargeter)
		if !ok {
			report.Passed = false
			report.Phases = append(report.Phases, PhaseReport{
				Name: phase.Name, Passed: false,
				FailedCheck: "spec targets cluster " + phase.Cluster + " but the deployment cannot enumerate clusters",
			})
			r.dep.Rollback(deployed.order, spec.ConfigPath)
			r.finish(report, done)
			return
		}
		test = ct.ServersIn(phase.Cluster)
		if phase.TestServers > 0 && len(test) > phase.TestServers {
			test = test[:phase.TestServers]
		}
	} else {
		n := phase.TestServers
		if n > len(fleet) {
			n = len(fleet)
		}
		test = fleet[:n]
	}
	// Control = servers with no temporary deploy from any phase so far.
	var newly []simnet.NodeID
	for _, s := range test {
		if !deployed.has[s] {
			newly = append(newly, s)
			deployed.has[s] = true
		}
	}
	deployed.order = append(deployed.order, newly...)
	var control []simnet.NodeID
	for _, s := range fleet {
		if !deployed.has[s] {
			control = append(control, s)
		}
	}
	r.dep.DeployTemp(newly, spec.ConfigPath, data)
	r.net.After(phase.Duration, func() {
		pr := PhaseReport{Name: phase.Name, Passed: true, TestServers: len(test)}
		testSamples := make([]health.Sample, 0, len(test))
		for _, s := range test {
			testSamples = append(testSamples, r.dep.Sample(s))
		}
		controlSamples := make([]health.Sample, 0, len(control))
		for _, s := range control {
			controlSamples = append(controlSamples, r.dep.Sample(s))
		}
		for _, check := range phase.Checks {
			cmp := health.Compare(testSamples, controlSamples, check.Metric)
			pr.Comparisons = append(pr.Comparisons, cmp)
			if !check.Evaluate(cmp) {
				pr.Passed = false
				pr.FailedCheck = fmt.Sprintf("%s (rel delta %+.1f%%, tolerance %.1f%%)",
					check.Metric, 100*cmp.RelDelta, 100*check.Tolerance)
				break
			}
		}
		report.Phases = append(report.Phases, pr)
		if !pr.Passed {
			// Abort: roll back every temporary deployment.
			r.dep.Rollback(deployed.order, spec.ConfigPath)
			report.Passed = false
			r.finish(report, done)
			return
		}
		r.runPhase(spec, data, idx+1, deployed, report, done)
	})
}
