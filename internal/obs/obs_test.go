package obs

import (
	"encoding/json"
	"fmt"
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
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram accessors")
	}
	if h.Summary() != "(nil histogram)" {
		t.Error("nil histogram Summary")
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
	if h.Min() != time.Millisecond || h.Quantile(1) != 100*time.Millisecond {
		t.Errorf("min/max = %s/%s", h.Min(), h.Quantile(1))
	}
	if got, want := h.Sum(), 5050*time.Millisecond; got != want {
		t.Errorf("Sum = %s, want %s", got, want)
	}
	// The exact extremes are the 0th and 100th quantiles.
	if h.Quantile(0) != h.Min() {
		t.Error("quantile extremes")
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
	if n.Min() != 0 || n.Quantile(1) != 0 || n.Count() != 1 {
		t.Error("negative observation should clamp to 0")
	}
}

// TestRegistryHistogramsAndText: histograms are kept by name, and what
// the commands print of them and of the counters — Histogram.Summary and
// the counter table — names what was recorded.
func TestRegistryHistogramsAndText(t *testing.T) {
	r := New()
	r.Add("lands", 2)
	r.Observe("stage.compile", 3*time.Millisecond)
	r.Observe("stage.compile", 5*time.Millisecond)
	r.Observe("stage.canary", 2*time.Second)
	if r.Histogram("stage.compile").Count() != 2 || r.Histogram("stage.canary").Count() != 1 {
		t.Error("histogram reuse by name")
	}
	if got := r.Histogram("stage.compile").Summary(); !strings.HasPrefix(got, "n=2 ") {
		t.Errorf("Summary = %q", got)
	}
	text := r.Counters().Table("counters")
	for _, want := range []string{"lands", "total"} {
		if !strings.Contains(text, want) {
			t.Errorf("counter table missing %q:\n%s", want, text)
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

	if got := r.Histogram(HistHopLeaderObserver).Quantile(1); got != 4*time.Second {
		t.Errorf("leader→observer hop = %s, want 4s", got)
	}
	if got := r.Histogram(HistHopObserverProxy).Quantile(1); got != 500*time.Millisecond {
		t.Errorf("observer→proxy hop = %s, want 500ms", got)
	}
	if got := r.Histogram(HistCommitToProxy).Quantile(1); got != 4500*time.Millisecond {
		t.Errorf("commit→proxy = %s, want 4.5s", got)
	}
	if got := r.Histogram(HistCommitToRead).Quantile(1); got != 4600*time.Millisecond {
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
	if got := r.Histogram(HistCommitToProxy).Quantile(1); got != 5*time.Second {
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
	_ = tr.Render()
	if _, err := json.Marshal(tr); err != nil {
		t.Fatal(err)
	}
}

// TestTraceRetentionBounded is the regression gate for unbounded trace
// growth: a 10k-commit run must stay within the trace cap, evict the
// least-recently-used traces first, and keep alias/path lookups correct.
func TestTraceRetentionBounded(t *testing.T) {
	r := New()
	r.traceCap = 64
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("commit-%d", i)
		tr := r.StartTrace(key, at(time.Duration(i)*time.Second))
		tr.EndAt(at(time.Duration(i)*time.Second + time.Millisecond))
		// Keep commit-0 hot (every lookup refreshes recency — well inside
		// the 64-trace cap): recency, not insertion order, decides victims.
		if i%10 == 0 && i > 0 {
			if r.TraceByKey("commit-0") == nil {
				t.Fatalf("hot trace evicted at i=%d", i)
			}
		}
	}
	if got := len(r.Traces()); got > 64 {
		t.Fatalf("retained traces = %d, want <= 64", got)
	}
	if r.TraceByKey("commit-0") == nil {
		t.Fatal("most-recently-used trace evicted")
	}
	if r.TraceByKey("commit-9999") == nil {
		t.Fatal("newest trace evicted")
	}
	if r.TraceByKey("commit-5000") != nil {
		t.Fatal("cold mid-run trace survived 10k inserts")
	}
	evicted := r.Counters().Get("obs.trace.evicted")
	if evicted != 10_000-64 {
		t.Fatalf("obs.trace.evicted = %d, want %d", evicted, 10_000-64)
	}
	// Evicted traces must be fully unindexed: prefix lookup never returns
	// a trace the ring no longer holds.
	if tr := r.TraceByKey("commit-500"); tr != nil {
		t.Fatalf("evicted trace still indexed: %v", tr)
	}
}

func TestTraceEvictionDropsAliasesAndPaths(t *testing.T) {
	r := New()
	r.traceCap = 1
	t1 := r.StartTrace("first", at(0))
	r.Alias(t1, "alias-1")
	r.BindPath("/cfg/a", t1)
	t2 := r.StartTrace("second", at(time.Second)) // evicts t1
	if r.TraceByKey("first") != nil || r.TraceByKey("alias-1") != nil {
		t.Fatal("evicted trace reachable by key/alias")
	}
	if r.TraceByKey("second") != t2 {
		t.Fatal("survivor lost")
	}
	// A path event for the evicted binding must not resurrect it.
	r.PathEvent("/cfg/a", PropEvent{Stage: EvZeusCommit, At: at(2 * time.Second)})
}
