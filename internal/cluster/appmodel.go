package cluster

import (
	"bytes"
	"encoding/json"

	"configerator/internal/health"
)

// Fault markers embedded in config JSON drive the simulated application
// behaviour. The fault-injection experiments (§6.4 reproduction) craft
// configs carrying a "_fault" object; the app model translates it into
// metric shifts the canary service can (or, for some classes, cannot)
// observe.
type FaultMarker struct {
	// Type is one of "error", "crash", "log_spew", "load", "latency".
	Type string `json:"type"`
	// Intensity scales the effect (1.0 = strong).
	Intensity float64 `json:"intensity"`
}

// faultIn extracts the marker from a config artifact, if any.
func faultIn(data []byte) (FaultMarker, bool) {
	var probe struct {
		Fault *FaultMarker `json:"_fault"`
	}
	if err := json.Unmarshal(data, &probe); err != nil || probe.Fault == nil {
		return FaultMarker{}, false
	}
	return *probe.Fault, true
}

// faultVersion is one decoded content of a watched path.
type faultVersion struct {
	data  []byte
	fault FaultMarker
	ok    bool
	// read: a sample has asked for this content since the path last showed
	// a content the memo did not know.
	read bool
}

// faultOf is faultIn through a per-path memo, so a canary that samples
// every server decodes each distinct content of a path once instead of
// once per server and sample. A path holds few contents at a time (the
// committed one, the one replacing it, a canary override); when a new one
// shows up, those no sample has asked for since the previous new one are
// no longer served by any proxy and are dropped.
func (f *Fleet) faultOf(path string, data []byte) (FaultMarker, bool) {
	versions := f.faults[path]
	for i := range versions {
		if v := &versions[i]; bytes.Equal(v.data, data) {
			v.read = true
			return v.fault, v.ok
		}
	}
	live := versions[:0]
	for _, v := range versions {
		if v.read {
			v.read = false
			live = append(live, v)
		}
	}
	fault, ok := faultIn(data)
	f.faults[path] = append(live, faultVersion{data: data, fault: fault, ok: ok, read: true})
	return fault, ok
}

// Baseline metric levels for a healthy server.
const (
	baseErrorRate = 0.010
	baseCrashRate = 0.001
	baseLogSpew   = 100.0
	baseLatencyMs = 50.0
	baseCTR       = 0.050
)

// DefaultAppModel computes a server's health sample from the configs its
// applications currently see (committed or canary-overridden):
//
//   - "error": error rate multiplies by 1+9·intensity — obvious even on 20
//     servers (a Type I-style effect the first canary phase catches).
//   - "crash": crash rate and error rate jump (the §6.4 race-condition
//     anecdote: a valid config exercising a buggy code path).
//   - "log_spew": log lines explode (the §6.4 schema-mismatch anecdote
//     caught by comparing error logs of 20 canary servers).
//   - "load": a rare code path hits a shared backend; the latency penalty
//     on servers running the config scales with the FRACTION of the fleet
//     running it, so 20 test servers barely move while a cluster-wide
//     phase shows a large shift (the §6.4 load incident).
//   - "latency": a flat per-server latency regression.
func DefaultAppModel(f *Fleet, s *Server) health.Sample {
	sample := health.Sample{
		health.MetricErrorRate: baseErrorRate,
		health.MetricCrashRate: baseCrashRate,
		health.MetricLogSpew:   baseLogSpew,
		health.MetricLatencyMs: baseLatencyMs,
		health.MetricCTR:       baseCTR,
	}
	for _, path := range f.WatchedPaths() {
		e := s.Proxy.Read(path)
		if !e.OK || !e.Exists {
			continue
		}
		fault, ok := f.faultOf(path, e.Data)
		if !ok {
			continue
		}
		switch fault.Type {
		case "error":
			sample[health.MetricErrorRate] *= 1 + 9*fault.Intensity
		case "crash":
			sample[health.MetricCrashRate] *= 1 + 50*fault.Intensity
			sample[health.MetricErrorRate] *= 1 + 4*fault.Intensity
		case "log_spew":
			sample[health.MetricLogSpew] *= 1 + 40*fault.Intensity
		case "load":
			frac := f.fractionRunning(path, e.Data)
			sample[health.MetricLatencyMs] *= 1 + 4*fault.Intensity*frac
		case "latency":
			sample[health.MetricLatencyMs] *= 1 + fault.Intensity
		}
	}
	return sample
}

// fractionRunning reports what fraction of the fleet currently sees the
// same bytes for the path — the breadth term behind load-type faults.
func (f *Fleet) fractionRunning(path string, data []byte) float64 {
	if len(f.servers) == 0 {
		return 0
	}
	n := 0
	for _, s := range f.servers {
		if e := s.Proxy.Read(path); e.OK && e.Exists && string(e.Data) == string(data) {
			n++
		}
	}
	return float64(n) / float64(len(f.servers))
}
