// Package obs is the observability layer for the whole reproduction: it
// follows one config commit end-to-end the way the paper's evaluation
// (§6) does — commit-scoped traces through the pipeline stages, down the
// Zeus leader→observer→proxy push tree, and into the per-server proxy and
// client reads — and aggregates fixed-bucket latency histograms so the
// propagation CDFs can be regenerated from instrumented runs.
//
// Everything is pure stdlib and nil-safe: a nil *Registry (and the nil
// *Histogram / *Trace / *Span handles it returns) turns every call into a
// no-op, matching the stats.Counters idiom, so instrumented components pay
// nothing when observability is off.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"configerator/internal/stats"
)

// Propagation event stages, in hop order down the push tree.
const (
	EvZeusCommit       = "zeus.commit"       // leader applied + fanned out a write
	EvObserverApply    = "observer.apply"    // observer applied the pushed op
	EvProxyMaterialize = "proxy.materialize" // proxy cached the new value
	EvClientRead       = "client.read"       // application read the value
)

// Histogram names fed by PathEvent (per-hop) — exported so experiments and
// tests read the same keys the instrumentation writes.
const (
	HistHopLeaderObserver = "hop.leader_to_observer"
	HistHopObserverProxy  = "hop.observer_to_proxy"
	HistCommitToProxy     = "prop.commit_to_proxy"
	HistCommitToRead      = "prop.commit_to_read"
)

// PropEvent is one observation of a commit moving down the distribution
// tree, reported by the component that saw it with the virtual-clock time.
type PropEvent struct {
	Stage string // one of the Ev* constants
	Node  string // reporting node id
	Via   string // upstream node, when known (proxy → its observer)
	Zxid  int64
	At    time.Time
	Path  string // filled by PathEvent
}

// DefaultTraceCap bounds the commit-scoped traces a registry retains.
// Traces are the one per-commit-unbounded structure in the registry; a
// fleet that lands 10k commits must not hold 10k span trees, so the
// least-recently-used trace is evicted (and counted in obs.trace.evicted)
// once the cap is exceeded.
const DefaultTraceCap = 512

// Registry aggregates counters, latency histograms, bounded time series,
// and commit-scoped traces, and renders deterministic text and JSON
// exports.
type Registry struct {
	mu       sync.Mutex
	counters *stats.Counters
	hists    map[string]*Histogram
	series   map[string]*Series
	traces   []*Trace // creation order
	byKey    map[string]*Trace
	byPath   map[string]*Trace // zeus path -> trace of the change in flight
	lastUse  map[*Trace]int64  // LRU recency stamps (creation + lookups)
	lruSeq   int64
	nextID   int

	// Retention bounds; tests shrink them to reach eviction quickly.
	traceCap  int
	seriesCap int
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:  stats.NewCounters(),
		hists:     make(map[string]*Histogram),
		series:    make(map[string]*Series),
		byKey:     make(map[string]*Trace),
		byPath:    make(map[string]*Trace),
		lastUse:   make(map[*Trace]int64),
		traceCap:  DefaultTraceCap,
		seriesCap: DefaultSeriesCap,
	}
}

// Counters exposes the registry's counter set (nil when the registry is
// nil — itself a safe no-op handle).
func (r *Registry) Counters() *stats.Counters {
	if r == nil {
		return nil
	}
	return r.counters
}

// Add increments a named counter.
func (r *Registry) Add(name string, delta int64) { r.Counters().Add(name, delta) }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Observe records one duration into the named histogram.
func (r *Registry) Observe(name string, d time.Duration) { r.Histogram(name).Observe(d) }

// HistogramNames lists the registered histograms, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.hists))
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// evictTracesLocked drops least-recently-used traces until the cap holds.
// Caller holds r.mu. Key/alias/path indexes are cleaned by scanning the
// maps for the evicted pointer — never by locking the trace, so the
// Alias ordering (tr.mu released before r.mu) cannot deadlock.
func (r *Registry) evictTracesLocked() {
	for len(r.traces) > r.traceCap {
		victim := 0
		for i, t := range r.traces {
			if r.lastUse[t] < r.lastUse[r.traces[victim]] {
				victim = i
			}
		}
		r.removeTraceLocked(r.traces[victim])
		r.counters.Add("obs.trace.evicted", 1)
	}
}

// removeTraceLocked drops tr from the trace list and every index.
func (r *Registry) removeTraceLocked(tr *Trace) {
	for i, t := range r.traces {
		if t == tr {
			copy(r.traces[i:], r.traces[i+1:])
			r.traces[len(r.traces)-1] = nil
			r.traces = r.traces[:len(r.traces)-1]
			break
		}
	}
	for k, t := range r.byKey {
		if t == tr {
			delete(r.byKey, k)
		}
	}
	for p, t := range r.byPath {
		if t == tr {
			delete(r.byPath, p)
		}
	}
	delete(r.lastUse, tr)
}

// StartTrace opens a commit-scoped trace. An empty key is assigned
// "change-N" (N increments per registry). Starting a trace past the trace
// cap evicts the least-recently-used one.
func (r *Registry) StartTrace(key string, start time.Time) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if key == "" {
		r.nextID++
		key = fmt.Sprintf("change-%d", r.nextID)
	}
	tr := newTrace(key, start)
	r.traces = append(r.traces, tr)
	r.byKey[key] = tr
	r.touchTraceLocked(tr)
	r.evictTracesLocked()
	return tr
}

// Alias registers an additional lookup key for a trace — the pipeline adds
// the landed commit hashes so `configerator trace <commit>` resolves.
func (r *Registry) Alias(tr *Trace, key string) {
	if r == nil || tr == nil || key == "" {
		return
	}
	tr.mu.Lock()
	tr.Aliases = append(tr.Aliases, key)
	tr.mu.Unlock()
	r.mu.Lock()
	r.byKey[key] = tr
	r.mu.Unlock()
}

// TraceByKey resolves a trace by exact key/alias, or by unique prefix (so
// short commit hashes work). Returns nil when absent or ambiguous. A hit
// refreshes the trace's recency, so actively-inspected traces outlive the
// LRU cap.
func (r *Registry) TraceByKey(key string) *Trace {
	if r == nil || key == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if tr := r.byKey[key]; tr != nil {
		r.touchTraceLocked(tr)
		return tr
	}
	var match *Trace
	for k, tr := range r.byKey {
		if strings.HasPrefix(k, key) {
			if match != nil && match != tr {
				return nil // ambiguous
			}
			match = tr
		}
	}
	if match != nil {
		r.touchTraceLocked(match)
	}
	return match
}

// touchTraceLocked refreshes tr's recency stamp. Caller holds r.mu.
func (r *Registry) touchTraceLocked(tr *Trace) {
	r.lruSeq++
	r.lastUse[tr] = r.lruSeq
}

// Traces returns every trace in creation order.
func (r *Registry) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Trace(nil), r.traces...)
}

// BindPath routes future propagation events for a Zeus path to tr. The
// pipeline binds each landed artifact's Zeus path just before stage 5 so
// the tailer's write and everything downstream lands in the right trace.
func (r *Registry) BindPath(path string, tr *Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.byPath[path] = tr
	if tr != nil {
		r.touchTraceLocked(tr)
	}
	r.mu.Unlock()
}

// PathEvent records one propagation observation: it feeds the per-hop
// histograms and counters, and stitches a hop span into the trace bound to
// the path (if any). Components call this with their own virtual-clock
// time; correlation happens here.
func (r *Registry) PathEvent(path string, ev PropEvent) {
	if r == nil {
		return
	}
	ev.Path = path
	r.mu.Lock()
	tr := r.byPath[path]
	if tr != nil {
		r.touchTraceLocked(tr)
	}
	r.mu.Unlock()
	r.counters.Add("obs."+ev.Stage, 1)
	if tr == nil {
		return
	}
	obsHop, proxyHop, total, ok := tr.addEvent(ev)
	if !ok {
		return
	}
	switch ev.Stage {
	case EvObserverApply:
		r.Observe(HistHopLeaderObserver, obsHop)
	case EvProxyMaterialize:
		r.Observe(HistHopObserverProxy, proxyHop)
		r.Observe(HistCommitToProxy, total)
	case EvClientRead:
		r.Observe(HistCommitToRead, total)
	}
}

// Text renders the deterministic plain-text export: counters, histogram
// summaries, and the trace index.
func (r *Registry) Text() string {
	if r == nil {
		return "(nil obs registry)"
	}
	var b strings.Builder
	b.WriteString(r.counters.Table("counters"))
	names := r.HistogramNames()
	if len(names) > 0 {
		t := stats.NewTable("histograms", "name", "summary")
		for _, n := range names {
			t.AddRawRow(n, r.Histogram(n).Summary())
		}
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	if sNames := r.SeriesNames(); len(sNames) > 0 {
		t := stats.NewTable("series", "name", "window")
		for _, n := range sNames {
			t.AddRawRow(n, r.Series(n).summary())
		}
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	traces := r.Traces()
	if len(traces) > 0 {
		fmt.Fprintf(&b, "\ntraces (%d):\n", len(traces))
		for _, tr := range traces {
			tr.mu.Lock()
			key := tr.Key
			aliases := strings.Join(tr.Aliases, ",")
			spans := len(tr.Root.Children)
			tr.mu.Unlock()
			fmt.Fprintf(&b, "  %s", key)
			if aliases != "" {
				fmt.Fprintf(&b, " (%s)", aliases)
			}
			fmt.Fprintf(&b, " — %d top-level spans\n", spans)
		}
	}
	return b.String()
}

// JSON renders the deterministic JSON export: counters (sorted keys via
// stats.Counters.JSON), histogram digests, and full trace trees.
func (r *Registry) JSON() []byte {
	if r == nil {
		return []byte("null")
	}
	var b strings.Builder
	b.WriteString(`{"counters":`)
	b.Write(r.counters.JSON())
	b.WriteString(`,"histograms":{`)
	for i, n := range r.HistogramNames() {
		if i > 0 {
			b.WriteByte(',')
		}
		h := r.Histogram(n)
		fmt.Fprintf(&b, `%q:{"count":%d,"mean_ms":%.3f,"p50_ms":%.3f,"p90_ms":%.3f,"p99_ms":%.3f,"max_ms":%.3f}`,
			n, h.Count(), ms(h.Mean()), ms(h.Quantile(0.50)), ms(h.Quantile(0.90)),
			ms(h.Quantile(0.99)), ms(h.Max()))
	}
	b.WriteString(`},"series":{`)
	for i, n := range r.SeriesNames() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:", n)
		r.Series(n).jsonInto(&b)
	}
	b.WriteString(`},"traces":[`)
	for i, tr := range r.Traces() {
		if i > 0 {
			b.WriteByte(',')
		}
		tr.jsonInto(&b)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}
