package cluster

import (
	"bytes"
	"encoding/json"
	"slices"

	"configerator/internal/health"
	"configerator/internal/proxy"
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

// Baseline metric levels for a healthy server.
const (
	baseErrorRate = 0.010
	baseCrashRate = 0.001
	baseLogSpew   = 100.0
	baseLatencyMs = 50.0
	baseCTR       = 0.050
)

// baseSample is a healthy server's sample.
func baseSample() health.Sample {
	return health.Sample{
		health.MetricErrorRate: baseErrorRate,
		health.MetricCrashRate: baseCrashRate,
		health.MetricLogSpew:   baseLogSpew,
		health.MetricLatencyMs: baseLatencyMs,
		health.MetricCTR:       baseCTR,
	}
}

// effect applies the fault to a sample; frac is the fraction of the fleet
// seeing the same content, read only by a load fault.
func (m FaultMarker) effect(sample health.Sample, frac float64) {
	switch m.Type {
	case "error":
		sample[health.MetricErrorRate] *= 1 + 9*m.Intensity
	case "crash":
		sample[health.MetricCrashRate] *= 1 + 50*m.Intensity
		sample[health.MetricErrorRate] *= 1 + 4*m.Intensity
	case "log_spew":
		sample[health.MetricLogSpew] *= 1 + 40*m.Intensity
	case "load":
		sample[health.MetricLatencyMs] *= 1 + 4*m.Intensity*frac
	case "latency":
		sample[health.MetricLatencyMs] *= 1 + m.Intensity
	}
}

// faultVersion is one content of a watched path that some server's
// application sees, decoded once.
type faultVersion struct {
	data  []byte
	fault FaultMarker
	ok    bool
	n     int // servers whose view it is; the memo drops it at 0
}

// view is one server's application view of one watched path: what the last
// read of it returned (nil: nothing, or a deleted config), and whether that
// may be out of date.
type view struct {
	v     *faultVersion
	stale bool
}

// watchedPath is one path the health model watches: the contents servers see
// (the fault memo), and each server's view, indexed like Fleet.servers.
type watchedPath struct {
	path     string
	versions []*faultVersion
	views    []view
}

// appView is a server's bookkeeping across the watched paths.
type appView struct {
	idx    int    // the server's index in Fleet.servers and in every views slice
	epoch  uint64 // the proxy's Epoch when every view was last marked stale
	stale  int    // views marked stale
	faulty int    // views whose content carries a fault marker
}

// version returns the memo entry for data, decoding it on first sight, so a
// canary that samples every server decodes each distinct content of a path
// once instead of once per server.
func (w *watchedPath) version(data []byte) *faultVersion {
	for _, v := range w.versions {
		if bytes.Equal(v.data, data) {
			return v
		}
	}
	fault, ok := faultIn(data)
	v := &faultVersion{data: data, fault: fault, ok: ok}
	w.versions = append(w.versions, v)
	return v
}

// see makes v server s's view of w, keeping the per-content counts; a
// content no server sees any more leaves the memo.
func (w *watchedPath) see(s *Server, v *faultVersion) {
	vw := &w.views[s.app.idx]
	old := vw.v
	if old == v {
		return
	}
	if old != nil {
		if old.ok {
			s.app.faulty--
		}
		if old.n--; old.n == 0 {
			w.versions = slices.DeleteFunc(w.versions, func(x *faultVersion) bool { return x == old })
		}
	}
	if v != nil {
		if v.ok {
			s.app.faulty++
		}
		v.n++
	}
	vw.v = v
}

// markStale says s's view of w may be out of date.
func (w *watchedPath) markStale(s *Server) {
	if vw := &w.views[s.app.idx]; !vw.stale {
		vw.stale = true
		s.app.stale++
	}
}

// read takes s's view of w with the read an application makes. A read served
// cold leaves the view stale.
func (w *watchedPath) read(s *Server) {
	e, src, _ := s.Proxy.Lookup(w.path)
	var v *faultVersion
	if e != nil && e.Exists {
		v = w.version(e.Data)
	}
	w.see(s, v)
	if src != proxy.SourceStale {
		w.views[s.app.idx].stale = false
		s.app.stale--
	}
}

// sync marks every view of s stale when its proxy's Epoch moved.
func (f *Fleet) sync(s *Server) {
	if e := s.Proxy.Epoch(); e != s.app.epoch {
		s.app.epoch = e
		for _, w := range f.watched {
			w.markStale(s)
		}
	}
}

// fresh returns s's view of w, read again if stale; s is synced.
func (w *watchedPath) fresh(s *Server) *faultVersion {
	if w.views[s.app.idx].stale {
		w.read(s)
	}
	return w.views[s.app.idx].v
}

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
//
// The views are maintained, not polled. A proxy's OnChange hook marks a
// server's view of a path stale when the proxy applies a version (a delete
// included) or gains or loses an override, and a move of its Epoch (crash,
// restart) marks all of them. A stale view is read with Proxy.Read when a
// sample or a load fault next needs it — the instant the read happened when
// every sample read every path. A view served cold (proxy down, or nothing in
// memory and no override) stays stale and is read at every sample, as before,
// since that read has effects: a miss fetches and watches the path. So a
// server with no stale and no faulted view is sampled without a read, and a
// load fault's breadth is its content's count.
func DefaultAppModel(f *Fleet, s *Server) health.Sample {
	sample := baseSample()
	if f.sync(s); s.app.stale == 0 && s.app.faulty == 0 {
		return sample
	}
	for _, w := range f.watched {
		v := w.fresh(s)
		if v == nil || !v.ok {
			continue
		}
		frac := 0.0
		if v.fault.Type == "load" {
			frac = f.fractionRunning(w, v)
		}
		v.fault.effect(sample, frac)
	}
	return sample
}

// fractionRunning reports what fraction of the fleet currently sees v for
// w's path — the breadth term behind load-type faults. It still visits every
// server, since only a server's own Epoch says whether its views moved, but
// reads only the stale views.
func (f *Fleet) fractionRunning(w *watchedPath, v *faultVersion) float64 {
	for _, s := range f.servers {
		f.sync(s)
		w.fresh(s)
	}
	return float64(v.n) / float64(len(f.servers))
}

// changed is a proxy's OnChange hook: s's view of e's path, if watched, may
// have moved, and waits, stale, for the sample that needs it.
func (f *Fleet) changed(s *Server, e proxy.Entry) {
	if w := f.byPath[e.Path]; w != nil {
		w.markStale(s)
	}
}
