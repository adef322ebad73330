package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public functions, recorded by the
// benchmark around the call (the product code is not touched). Name is
// "<layer>.<call>"; Parent is an index into the tracer's spans (-1 for a
// root); Op is the workload op the span belongs to, shared by every span of
// that op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the workload ends. It serves one
// goroutine: begin/end nest like the calls they wrap. A nil *tracer records
// nothing, which is how the untraced run shares code with the traced one.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("bench: span end out of order: " + t.spans[id].Name)
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = now
}

// in runs fn inside a span.
func (t *tracer) in(name string, op int, fn func()) {
	id := t.begin(name, op)
	fn()
	t.end(id)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerStat is one layer's part of the spans under a set of roots.
type layerStat struct {
	Layer string        `json:"layer"`
	Calls int           `json:"calls"`
	Self  time.Duration `json:"self_ns"`
	Share float64       `json:"share_of_root"`
}

// selfTimes returns every span's self time: its duration minus the part of
// it that its child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// layers sums self time by layer over the timed ops' spans named rootName
// (Op >= 0; set-up spans carry -1) and everything below them, with each
// layer's share of those roots' total.
func (t *tracer) layers(rootName string) (stats []layerStat, rootTotal time.Duration) {
	if t == nil {
		return nil, 0
	}
	self := t.selfTimes()
	// Spans are appended in begin order, so a parent always precedes its
	// children and one pass marks the subtree.
	inTree := make([]bool, len(t.spans))
	by := map[string]*layerStat{}
	for i, s := range t.spans {
		switch {
		case s.Name == rootName && s.Op >= 0:
			inTree[i] = true
			rootTotal += time.Duration(s.End - s.Start)
		case s.Parent >= 0 && inTree[s.Parent]:
			inTree[i] = true
		default:
			continue
		}
		l := layerOf(s.Name)
		if by[l] == nil {
			by[l] = &layerStat{Layer: l}
		}
		by[l].Calls++
		by[l].Self += self[i]
	}
	for _, st := range by {
		if rootTotal > 0 {
			st.Share = float64(st.Self) / float64(rootTotal)
		}
		stats = append(stats, *st)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Self > stats[j].Self })
	return stats, rootTotal
}

// nameStat sums the spans of one name.
type nameStat struct {
	calls       int
	total, self time.Duration
}

// byName sums the spans of the timed ops (Op >= 0) by span name.
func (t *tracer) byName() map[string]nameStat {
	out := map[string]nameStat{}
	if t == nil {
		return out
	}
	self := t.selfTimes()
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		st := out[s.Name]
		st.calls++
		st.total += time.Duration(s.End - s.Start)
		st.self += self[i]
		out[s.Name] = st
	}
	return out
}

// traceFile is what a traced run writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Stamp    stamp              `json:"stamp"`
	Root     string             `json:"root_span"`
	Layers   []layerStat        `json:"layers"`
	PerLayer map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
