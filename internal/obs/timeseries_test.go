package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSeriesRingSemantics(t *testing.T) {
	s := newSeries(4)
	for i := 0; i < 3; i++ {
		s.Record(at(time.Duration(i)*time.Second), float64(i))
	}
	if s.Len() != 3 || s.Total() != 3 {
		t.Fatalf("len=%d total=%d", s.Len(), s.Total())
	}
	got := s.Samples()
	for i, sm := range got {
		if sm.V != float64(i) {
			t.Fatalf("samples = %+v", got)
		}
	}
	// Overflow: oldest samples shed, Total keeps counting.
	for i := 3; i < 10; i++ {
		s.Record(at(time.Duration(i)*time.Second), float64(i))
	}
	if s.Len() != 4 || s.Total() != 10 {
		t.Fatalf("after overflow len=%d total=%d", s.Len(), s.Total())
	}
	got = s.Samples()
	want := []float64{6, 7, 8, 9}
	for i := range want {
		if got[i].V != want[i] {
			t.Fatalf("retained = %+v, want values %v", got, want)
		}
	}
}

func TestRegistrySeries(t *testing.T) {
	r := New()
	r.Series("b.rate").Record(at(0), 1)
	r.Series("a.gauge").Record(at(time.Second), 2)
	if got := r.SeriesNames(); len(got) != 2 || got[0] != "a.gauge" || got[1] != "b.rate" {
		t.Fatalf("names = %v", got)
	}
	if r.Series("b.rate").Len() != 1 {
		t.Fatal("recorded sample missing")
	}
	// The registry's cap sizes the series it creates.
	r.seriesCap = 2
	s := r.Series("small")
	for i := 0; i < 5; i++ {
		s.Record(at(time.Duration(i)*time.Second), float64(i))
	}
	if s.Len() != 2 {
		t.Fatalf("capped series len = %d", s.Len())
	}
	// Text and JSON carry the series section.
	if txt := r.Text(); !strings.Contains(txt, "a.gauge") {
		t.Errorf("Text missing series:\n%s", txt)
	}
	if js := string(r.JSON()); !strings.Contains(js, `"series"`) || !strings.Contains(js, `"a.gauge"`) {
		t.Errorf("JSON missing series: %s", js)
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

// TestSeriesConcurrent pins the concurrency contract under -race: series
// writes race snapshots and renders.
func TestSeriesConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("s-%d", g%2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Series(name).Record(at(time.Duration(i)), float64(i))
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		_ = r.Series("s-0").Samples()
		_ = r.Series("s-1").Len()
		_ = r.Text()
		_ = r.JSON()
	}
	close(stop)
	wg.Wait()
}
