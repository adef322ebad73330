// Package health provides the healthcheck metrics the canary service
// compares (§3.3): each server exposes a metric sample (error rate,
// latency, click-through rate, …), and a canary phase compares the servers
// running the new config against the rest of the fleet — "the CTR collected
// from the servers using the new config should not be more than x% lower
// than the CTR collected from the servers still using the old config".
package health

import (
	"math"

	"configerator/internal/simnet"
)

// Canonical metric names used across the repository's experiments.
const (
	MetricErrorRate = "error_rate"
	MetricLatencyMs = "latency_ms"
	MetricCTR       = "ctr"
	MetricCrashRate = "crash_rate"
	MetricLogSpew   = "log_lines_per_sec"
)

// Sample is one server's metric snapshot.
type Sample map[string]float64

// Collector produces a metric sample for a server. The cluster simulation
// implements it; canary tests use fakes.
type Collector interface {
	Sample(server simnet.NodeID) Sample
}

// CollectorFunc adapts a function to Collector.
type CollectorFunc func(server simnet.NodeID) Sample

// Sample implements Collector.
func (f CollectorFunc) Sample(server simnet.NodeID) Sample { return f(server) }

// Mean averages one metric over samples (missing metrics count as absent,
// not zero). The second result is false when no sample carries the metric.
func Mean(samples []Sample, metric string) (float64, bool) {
	sum, n := 0.0, 0
	for _, s := range samples {
		if v, ok := s[metric]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Comparison is a test-vs-control readout for one metric.
type Comparison struct {
	Metric      string
	TestMean    float64
	ControlMean float64
	// RelDelta is (test-control)/control; +0.5 means the test group is 50%
	// higher. When control is ~0 and test is positive, RelDelta is +Inf.
	RelDelta float64
	// Valid is false when either side had no data.
	Valid bool
}

// Compare computes the test-vs-control comparison for one metric.
func Compare(test, control []Sample, metric string) Comparison {
	c := Comparison{Metric: metric}
	tm, tok := Mean(test, metric)
	cm, cok := Mean(control, metric)
	if !tok || !cok {
		return c
	}
	c.TestMean, c.ControlMean, c.Valid = tm, cm, true
	switch {
	case cm != 0:
		c.RelDelta = (tm - cm) / math.Abs(cm)
	case tm == 0:
		c.RelDelta = 0
	case tm > 0:
		c.RelDelta = math.Inf(1)
	default:
		c.RelDelta = math.Inf(-1)
	}
	return c
}
