package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultSeriesCap bounds each time series to a fixed ring of samples, so
// an always-on monitoring plane holds O(series × cap) memory no matter how
// long the fleet runs — the retention half of the scale-hygiene story.
const DefaultSeriesCap = 512

// Sample is one time-series observation: a value at a virtual-clock
// instant.
type Sample struct {
	At time.Time
	V  float64
}

// Series is a fixed-size ring buffer of samples — a gauge or rate sampled
// on the virtual clock. Old samples are overwritten once the ring fills;
// Total keeps counting so callers can tell how much history was shed.
// All methods are safe for concurrent use and no-op on a nil receiver
// (the Registry nil-safety idiom).
type Series struct {
	mu    sync.Mutex
	buf   []Sample // ring storage, allocated to cap on first record
	cap   int
	head  int    // next write slot
	n     int    // live samples (<= cap)
	total uint64 // lifetime samples recorded
}

func newSeries(capacity int) *Series {
	if capacity < 1 {
		capacity = DefaultSeriesCap
	}
	return &Series{cap: capacity}
}

// Record appends one sample, overwriting the oldest once the ring is full.
func (s *Series) Record(at time.Time, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.buf == nil {
		s.buf = make([]Sample, s.cap)
	}
	s.buf[s.head] = Sample{At: at, V: v}
	s.head = (s.head + 1) % s.cap
	if s.n < s.cap {
		s.n++
	}
	s.total++
	s.mu.Unlock()
}

// Len reports the live (retained) sample count.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Total reports the lifetime sample count, including overwritten history.
func (s *Series) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Samples returns the retained window in chronological order (a copy).
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samplesLocked()
}

func (s *Series) samplesLocked() []Sample {
	out := make([]Sample, 0, s.n)
	start := (s.head - s.n + s.cap) % s.cap
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(start+i)%s.cap])
	}
	return out
}

// summaryLocked is the one-line text rendering used by Registry.Text.
func (s *Series) summary() string {
	if s == nil {
		return "(nil)"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return "empty"
	}
	min, max := s.buf[(s.head-s.n+s.cap)%s.cap].V, s.buf[(s.head-s.n+s.cap)%s.cap].V
	start := (s.head - s.n + s.cap) % s.cap
	for i := 0; i < s.n; i++ {
		v := s.buf[(start+i)%s.cap].V
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	last := s.buf[(s.head-1+s.cap)%s.cap]
	return fmt.Sprintf("n=%d/%d last=%.4g min=%.4g max=%.4g", s.n, s.total, last.V, min, max)
}

// jsonInto appends the series' deterministic JSON encoding: retained
// samples as [unix_ms, value] pairs in chronological order.
func (s *Series) jsonInto(b *strings.Builder) {
	if s == nil {
		b.WriteString("null")
		return
	}
	samples := s.Samples()
	s.mu.Lock()
	total := s.total
	s.mu.Unlock()
	fmt.Fprintf(b, `{"count":%d,"total":%d,"samples":[`, len(samples), total)
	for i, sm := range samples {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `[%d,%g]`, sm.At.UnixMilli(), sm.V)
	}
	b.WriteString(`]}`)
}

// Series returns the named time series, creating it (at the registry's
// configured ring capacity) on first use. Nil-safe: a nil registry returns
// a nil series whose methods all no-op.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.series[name]
	if s == nil {
		s = newSeries(r.seriesCap)
		r.series[name] = s
	}
	return s
}

// SeriesNames lists the registered series, sorted.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.series))
	for n := range r.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
