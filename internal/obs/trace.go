package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one structured span attribute.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed operation inside a trace. Start/End are virtual-clock
// instants (the simnet clock for fleet runs, the standalone pipeline clock
// otherwise). Spans are created through their Trace so a nil trace yields
// nil spans, and every Span method no-ops on a nil receiver — instrumented
// code never nil-checks.
type Span struct {
	tr       *Trace // owning trace; guards all mutation
	Name     string
	Start    time.Time
	EndTime  time.Time
	Attrs    []Attr
	Children []*Span
}

// Trace is the commit-scoped record of one config change: a tree of spans
// covering the pipeline stages plus the distribution hops (leader commit →
// observer catch-up/push → proxy materialize) stitched in as they happen.
type Trace struct {
	mu      sync.Mutex
	Key     string   // primary key: "change-N" until land, then aliased
	Aliases []string // commit hashes added when the change lands
	Root    *Span

	// distParent is where distribution hop spans attach ("propagate"
	// stage when the pipeline marks one, else the root).
	distParent *Span
	// dist tracks per-(path,zxid) hop state so observer and proxy events
	// can find their upstream span and timestamp.
	dist map[distKey]*distState
}

type distKey struct {
	path string
	zxid int64
}

type distState struct {
	span      *Span // the zeus.commit span
	commitAt  time.Time
	observers map[string]*Span     // observer node -> hop span
	obsAt     map[string]time.Time // observer node -> apply time
}

func newTrace(key string, start time.Time) *Trace {
	tr := &Trace{Key: key, dist: make(map[distKey]*distState)}
	tr.Root = &Span{tr: tr, Name: "change", Start: start}
	tr.distParent = tr.Root
	return tr
}

// Span opens a child span under the trace root.
func (t *Trace) Span(name string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Root.childLocked(name, start)
}

func (s *Span) childLocked(name string, start time.Time) *Span {
	c := &Span{tr: s.tr, Name: name, Start: start}
	s.Children = append(s.Children, c)
	return c
}

// End closes the span at the given instant.
func (s *Span) End(at time.Time) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.EndTime = at
	s.tr.mu.Unlock()
}

// Attr attaches one structured attribute.
func (s *Span) Attr(key string, value interface{}) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: fmt.Sprintf("%v", value)})
	s.tr.mu.Unlock()
}

// Annotate attaches an attribute to the trace's root span.
func (t *Trace) Annotate(key string, value interface{}) {
	if t == nil {
		return
	}
	t.Root.Attr(key, value)
}

// SetDistParent marks the span under which distribution hop spans attach
// (the pipeline points this at its propagate stage).
func (t *Trace) SetDistParent(s *Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.distParent = s
	t.mu.Unlock()
}

// EndAt closes the root span.
func (t *Trace) EndAt(at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Root.EndTime = at
	t.mu.Unlock()
}

// addEvent stitches one propagation event into the hop-span tree. It
// returns the durations the registry feeds into the hop histograms:
// obsHop (leader commit → observer apply), proxyHop (observer apply →
// proxy materialize), and total (commit → proxy), with ok reporting
// whether the event matched known upstream state.
func (t *Trace) addEvent(ev PropEvent) (obsHop, proxyHop, total time.Duration, ok bool) {
	if t == nil {
		return 0, 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := distKey{path: ev.Path, zxid: ev.Zxid}
	switch ev.Stage {
	case EvZeusCommit:
		sp := t.distParent.childLocked("zeus.commit", ev.At)
		sp.EndTime = ev.At
		sp.Attrs = append(sp.Attrs,
			Attr{Key: "path", Value: ev.Path},
			Attr{Key: "zxid", Value: fmt.Sprintf("%d", ev.Zxid)},
			Attr{Key: "leader", Value: ev.Node})
		t.dist[key] = &distState{
			span: sp, commitAt: ev.At,
			observers: make(map[string]*Span),
			obsAt:     make(map[string]time.Time),
		}
		return 0, 0, 0, true
	case EvObserverApply:
		ds := t.dist[key]
		if ds == nil {
			return 0, 0, 0, false
		}
		sp := ds.span.childLocked("observer "+ev.Node, ds.commitAt)
		sp.EndTime = ev.At
		ds.observers[ev.Node] = sp
		ds.obsAt[ev.Node] = ev.At
		return ev.At.Sub(ds.commitAt), 0, 0, true
	case EvProxyMaterialize:
		ds := t.dist[key]
		if ds == nil {
			return 0, 0, 0, false
		}
		parent := ds.observers[ev.Via]
		from := ds.obsAt[ev.Via]
		if parent == nil {
			// Unknown upstream (e.g. direct fetch before any observer
			// event was seen): attach to the commit span and measure the
			// hop from commit time.
			parent = ds.span
			from = ds.commitAt
		}
		sp := parent.childLocked("proxy "+ev.Node, from)
		sp.EndTime = ev.At
		return 0, ev.At.Sub(from), ev.At.Sub(ds.commitAt), true
	default:
		ds := t.dist[key]
		if ds == nil {
			return 0, 0, 0, false
		}
		return 0, 0, ev.At.Sub(ds.commitAt), true
	}
}

// Render prints the span tree with durations and attributes, in creation
// order, offsets relative to the trace start.
func (t *Trace) Render() string {
	if t == nil {
		return "(nil trace)"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	keys := t.Key
	if len(t.Aliases) > 0 {
		keys += " (" + strings.Join(t.Aliases, ", ") + ")"
	}
	end := "open"
	if !t.Root.EndTime.IsZero() {
		end = fmtDur(t.Root.EndTime.Sub(t.Root.Start))
	}
	fmt.Fprintf(&b, "trace %s — %s\n", keys, end)
	base := t.Root.Start
	var walk func(s *Span, prefix string, last bool)
	walk = func(s *Span, prefix string, last bool) {
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		fmt.Fprintf(&b, "%s%s%s", prefix, branch, s.Name)
		if s.EndTime.IsZero() {
			fmt.Fprintf(&b, "  +%s..open", fmtDur(s.Start.Sub(base)))
		} else if s.EndTime.Equal(s.Start) {
			fmt.Fprintf(&b, "  @%s", fmtDur(s.Start.Sub(base)))
		} else {
			fmt.Fprintf(&b, "  +%s  (%s)", fmtDur(s.Start.Sub(base)), fmtDur(s.EndTime.Sub(s.Start)))
		}
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for i, c := range s.Children {
			walk(c, prefix+cont, i == len(s.Children)-1)
		}
	}
	for i, c := range t.Root.Children {
		walk(c, "", i == len(t.Root.Children)-1)
	}
	return b.String()
}

// JSON renders the trace's deterministic JSON encoding (sorted aliases
// and attrs, millisecond offsets from the root start) — "null" for a nil
// trace.
func (t *Trace) JSON() string {
	var b strings.Builder
	t.jsonInto(&b)
	return b.String()
}

// jsonInto appends the trace's deterministic JSON encoding.
func (t *Trace) jsonInto(b *strings.Builder) {
	if t == nil {
		b.WriteString("null")
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(b, `{"key":%q,"aliases":[`, t.Key)
	aliases := append([]string(nil), t.Aliases...)
	sort.Strings(aliases)
	for i, a := range aliases {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%q", a)
	}
	b.WriteString(`],"root":`)
	t.Root.jsonInto(b, t.Root.Start)
	b.WriteByte('}')
}

func (s *Span) jsonInto(b *strings.Builder, base time.Time) {
	fmt.Fprintf(b, `{"name":%q,"start_ms":%.3f`, s.Name, ms(s.Start.Sub(base)))
	if !s.EndTime.IsZero() {
		fmt.Fprintf(b, `,"end_ms":%.3f`, ms(s.EndTime.Sub(base)))
	}
	if len(s.Attrs) > 0 {
		b.WriteString(`,"attrs":{`)
		attrs := append([]Attr(nil), s.Attrs...)
		sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
		for i, a := range attrs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%q:%q", a.Key, a.Value)
		}
		b.WriteByte('}')
	}
	if len(s.Children) > 0 {
		b.WriteString(`,"children":[`)
		for i, c := range s.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			c.jsonInto(b, base)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
