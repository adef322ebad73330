package obs

import (
	"fmt"
	"sync"
	"time"
)

// Histogram bucket layout. Every histogram shares one fixed log-spaced
// layout so any two histograms are mergeable without rebucketing: bucket i
// covers (bound(i-1), bound(i)], where bound(i) = histBase << i. The range
// spans 50µs (an in-cluster hop) to years of virtual time (canary soaks,
// multi-day workload replays); observations beyond the last bound land in
// an overflow bucket and are reported via the exact max.
const (
	histBuckets = 44
	histBase    = 50 * time.Microsecond
)

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	return histBase << uint(i)
}

// bucketFor returns the bucket index for d (histBuckets = overflow).
func bucketFor(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	// The bucket index is the position of d's highest bit relative to
	// histBase; a short loop is clearer than bit tricks and the bucket
	// count is small.
	for i := 1; i < histBuckets; i++ {
		if d <= bucketBound(i) {
			return i
		}
	}
	return histBuckets
}

// Histogram is a concurrency-safe fixed-bucket latency histogram. The zero
// value is NOT ready; obtain instances from a Registry (or NewHistogram) so
// nil handles stay cheap: every method no-ops on a nil receiver, matching
// the stats.Counters idiom, so instrumented code needs no nil checks.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets + 1]uint64
	count  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration (negative observations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	h.counts[bucketFor(d)]++
	h.sum += d
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Min reports the smallest observation (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank. Buckets are
// log-spaced, so the estimate's relative error is bounded by the bucket
// ratio (2x); the exact min/max tighten the first and last buckets, and
// are what q = 0 and q = 1 return. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := time.Duration(0), bucketBound(i)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			if lo < h.min {
				lo = h.min
			}
			if i == histBuckets || hi > h.max {
				hi = h.max
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.max
}

// Summary renders the one-line p50/p90/p99 digest `configerator trace`
// prints.
func (h *Histogram) Summary() string {
	if h == nil {
		return "(nil histogram)"
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%s p90=%s p99=%s max=%s",
		h.count,
		fmtDur(h.quantileLocked(0.50)), fmtDur(h.quantileLocked(0.90)),
		fmtDur(h.quantileLocked(0.99)), fmtDur(h.max))
}

// fmtDur rounds a duration for display: microsecond precision below a
// millisecond, millisecond precision below ten seconds, else 10ms.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < 10*time.Second:
		return d.Round(time.Millisecond).String()
	default:
		return d.Round(10 * time.Millisecond).String()
	}
}
