package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return epoch.Add(d) }

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Observe("h", time.Second)
	r.PathEvent("/p", PropEvent{Stage: EvZeusCommit, At: at(0)})
	if r.Counters() != nil {
		t.Error("nil registry Counters should be nil")
	}
	if r.Histogram("h") != nil {
		t.Error("nil registry Histogram should be nil")
	}
	if r.HistogramNames() != nil {
		t.Error("nil registry HistogramNames should be nil")
	}
	if string(r.JSON()) != "null" {
		t.Errorf("nil JSON = %s", r.JSON())
	}
	if r.Text() == "" {
		t.Error("nil Text should still render")
	}

	tr := r.StartTrace("k", at(0))
	if tr != nil {
		t.Fatal("nil registry StartTrace should return nil")
	}
	sp := tr.Span("s", at(0))
	if sp != nil {
		t.Fatal("nil trace Span should return nil")
	}
	sp.End(at(time.Second))
	sp.Attr("k", "v")
	tr.SetDistParent(sp)
	tr.EndAt(at(time.Second))
	if tr.Render() != "(nil trace)" {
		t.Error("nil trace Render")
	}
	r.Alias(tr, "a")
	r.BindPath("/p", tr)
	if r.TraceByKey("k") != nil {
		t.Error("nil registry TraceByKey")
	}

	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("nil histogram accessors")
	}
	if h.Quantile(0.5) != 0 {
		t.Error("nil histogram Quantile")
	}
	if h.Summary() != "(nil histogram)" {
		t.Error("nil histogram Summary")
	}

	// The time-series API is equally nil-safe.
	if r.Series("s") != nil {
		t.Error("nil registry Series should be nil")
	}
	r.Series("s").Record(at(0), 1)
	if r.SeriesNames() != nil {
		t.Error("nil registry SeriesNames should be nil")
	}

	var s *Series
	s.Record(at(0), 1)
	if s.Len() != 0 || s.Total() != 0 {
		t.Error("nil series accessors")
	}
	if s.Samples() != nil {
		t.Error("nil series Samples")
	}
}

func TestHistogramBuckets(t *testing.T) {
	if bucketFor(0) != 0 || bucketFor(histBase) != 0 {
		t.Error("smallest bucket")
	}
	if bucketFor(histBase+1) != 1 {
		t.Error("boundary is inclusive upper")
	}
	if bucketFor(200000*time.Hour) != histBuckets {
		t.Error("overflow bucket")
	}
	for i := 0; i < histBuckets-1; i++ {
		if bucketFor(bucketBound(i)) != i {
			t.Errorf("bucketFor(bound(%d)) = %d", i, bucketFor(bucketBound(i)))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Summary() != "n=0" {
		t.Error("empty histogram")
	}
	// 100 observations of 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Errorf("min/max = %s/%s", h.Min(), h.Max())
	}
	if got, want := h.Mean(), 50500*time.Microsecond; got != want {
		t.Errorf("Mean = %s, want %s", got, want)
	}
	// Log buckets bound relative error by 2x; check p50 within its bucket.
	p50 := h.Quantile(0.50)
	if p50 < 25*time.Millisecond || p50 > 100*time.Millisecond {
		t.Errorf("p50 = %s, want ~50ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 51*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %s, want ~99ms", p99)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("quantile extremes")
	}
	// Identical observations: every quantile is exact (min==max tightens
	// the bucket to a point).
	e := NewHistogram()
	for i := 0; i < 10; i++ {
		e.Observe(4500 * time.Millisecond)
	}
	if e.Quantile(0.5) != 4500*time.Millisecond || e.Quantile(0.99) != 4500*time.Millisecond {
		t.Errorf("constant histogram p50=%s p99=%s", e.Quantile(0.5), e.Quantile(0.99))
	}
	if !strings.Contains(e.Summary(), "n=10") || !strings.Contains(e.Summary(), "p50=4.5s") {
		t.Errorf("Summary = %q", e.Summary())
	}
	// Negative observations clamp to zero.
	n := NewHistogram()
	n.Observe(-time.Second)
	if n.Min() != 0 || n.Max() != 0 || n.Count() != 1 {
		t.Error("negative observation should clamp to 0")
	}
}

func TestRegistryHistogramsAndText(t *testing.T) {
	r := New()
	r.Add("lands", 2)
	r.Observe("stage.compile", 3*time.Millisecond)
	r.Observe("stage.compile", 5*time.Millisecond)
	r.Observe("stage.canary", 2*time.Second)
	names := r.HistogramNames()
	if len(names) != 2 || names[0] != "stage.canary" || names[1] != "stage.compile" {
		t.Errorf("HistogramNames = %v", names)
	}
	if r.Histogram("stage.compile").Count() != 2 {
		t.Error("histogram reuse by name")
	}
	text := r.Text()
	for _, want := range []string{"lands", "stage.compile", "n=2", "stage.canary", "total"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text missing %q:\n%s", want, text)
		}
	}
}

func TestTraceSpansAndRender(t *testing.T) {
	r := New()
	tr := r.StartTrace("", at(0))
	if tr.Key != "change-1" {
		t.Errorf("auto key = %q", tr.Key)
	}
	lint := tr.Span("lint", at(0))
	lint.End(at(10 * time.Millisecond))
	lint.Attr("files", 3)
	prop := tr.Span("propagate", at(20*time.Millisecond))
	tr.SetDistParent(prop)

	path := "/configs/materialized/a.json"
	r.BindPath(path, tr)
	r.PathEvent(path, PropEvent{Stage: EvZeusCommit, Node: "zk1", Zxid: 7, At: at(100 * time.Millisecond)})
	r.PathEvent(path, PropEvent{Stage: EvObserverApply, Node: "obs1", Zxid: 7, At: at(4100 * time.Millisecond)})
	r.PathEvent(path, PropEvent{Stage: EvProxyMaterialize, Node: "web1", Via: "obs1", Zxid: 7, At: at(4600 * time.Millisecond)})
	r.PathEvent(path, PropEvent{Stage: EvClientRead, Node: "web1", Zxid: 7, At: at(4700 * time.Millisecond)})
	prop.End(at(4600 * time.Millisecond))
	tr.EndAt(at(4600 * time.Millisecond))

	if got := r.Histogram(HistHopLeaderObserver).Max(); got != 4*time.Second {
		t.Errorf("leader→observer hop = %s, want 4s", got)
	}
	if got := r.Histogram(HistHopObserverProxy).Max(); got != 500*time.Millisecond {
		t.Errorf("observer→proxy hop = %s, want 500ms", got)
	}
	if got := r.Histogram(HistCommitToProxy).Max(); got != 4500*time.Millisecond {
		t.Errorf("commit→proxy = %s, want 4.5s", got)
	}
	if got := r.Histogram(HistCommitToRead).Max(); got != 4600*time.Millisecond {
		t.Errorf("commit→read = %s, want 4.6s", got)
	}

	out := tr.Render()
	for _, want := range []string{
		"trace change-1", "lint", "files=3", "propagate",
		"zeus.commit", "observer obs1", "(4s)", "proxy web1", "(500ms)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	// Hop spans nest: observer under commit, proxy under observer.
	if strings.Index(out, "zeus.commit") > strings.Index(out, "observer obs1") ||
		strings.Index(out, "observer obs1") > strings.Index(out, "proxy web1") {
		t.Errorf("hop spans out of order:\n%s", out)
	}

	// Events for unbound paths and unknown zxids are safe no-ops.
	r.PathEvent("/unbound", PropEvent{Stage: EvObserverApply, Zxid: 1, At: at(0)})
	r.PathEvent(path, PropEvent{Stage: EvObserverApply, Zxid: 99, At: at(0)})
	if r.Histogram(HistHopLeaderObserver).Count() != 1 {
		t.Error("unmatched events must not feed histograms")
	}

	// Proxy event with unknown upstream falls back to the commit span.
	r.PathEvent(path, PropEvent{Stage: EvProxyMaterialize, Node: "web2", Via: "mystery", Zxid: 7, At: at(5100 * time.Millisecond)})
	if got := r.Histogram(HistCommitToProxy).Max(); got != 5*time.Second {
		t.Errorf("fallback commit→proxy = %s, want 5s", got)
	}
}

func TestTraceLookup(t *testing.T) {
	r := New()
	tr := r.StartTrace("change-1", at(0))
	r.Alias(tr, "deadbeef01234567")
	if r.TraceByKey("change-1") != tr || r.TraceByKey("deadbeef01234567") != tr {
		t.Error("exact lookup")
	}
	if r.TraceByKey("deadbe") != tr {
		t.Error("prefix lookup")
	}
	if r.TraceByKey("nope") != nil {
		t.Error("absent lookup")
	}
	r.StartTrace("change-2", at(0))
	if r.TraceByKey("change-") != nil {
		t.Error("ambiguous prefix must return nil")
	}
	if len(r.Traces()) != 2 {
		t.Error("Traces length")
	}
}

func TestJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Add("b", 2)
		r.Add("a", 1)
		r.Observe("h2", time.Second)
		r.Observe("h1", time.Millisecond)
		tr := r.StartTrace("k", at(0))
		r.Alias(tr, "zz")
		r.Alias(tr, "aa")
		sp := tr.Span("s", at(time.Millisecond))
		sp.Attr("z", 1)
		sp.Attr("a", 2)
		sp.End(at(2 * time.Millisecond))
		tr.EndAt(at(3 * time.Millisecond))
		return r
	}
	j1, j2 := string(build().JSON()), string(build().JSON())
	if j1 != j2 {
		t.Errorf("JSON not deterministic:\n%s\n%s", j1, j2)
	}
	for _, want := range []string{
		`"counters":{"a":1,"b":2}`, `"h1"`, `"h2"`,
		`"aliases":["aa","zz"]`, `"attrs":{"a":"2","z":"1"}`,
		`"start_ms":1.000`, `"end_ms":2.000`,
	} {
		if !strings.Contains(j1, want) {
			t.Errorf("JSON missing %q:\n%s", want, j1)
		}
	}
}

func TestConcurrency(t *testing.T) {
	r := New()
	tr := r.StartTrace("k", at(0))
	path := "/p"
	r.BindPath(path, tr)
	r.PathEvent(path, PropEvent{Stage: EvZeusCommit, Node: "l", Zxid: 1, At: at(0)})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Add("c", 1)
				r.Observe("h", time.Duration(j)*time.Millisecond)
				sp := tr.Span("s", at(time.Duration(j)))
				sp.Attr("i", i)
				sp.End(at(time.Duration(j + 1)))
				r.PathEvent(path, PropEvent{Stage: EvObserverApply, Node: "o", Zxid: 1, At: at(time.Second)})
			}
		}()
	}
	wg.Wait()
	if r.Counters().Get("c") != 1600 {
		t.Error("concurrent counter")
	}
	if r.Histogram("h").Count() != 1600 {
		t.Error("concurrent histogram")
	}
	_ = r.Text()
	_ = r.JSON()
	_ = tr.Render()
}
