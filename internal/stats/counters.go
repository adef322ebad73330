package stats

import (
	"sort"
	"sync"
)

// Counters is a small concurrency-safe named-counter set, used by the CDL
// compilation engine to surface cache hit/miss/eviction rates through the
// benchmark harness.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Add increments the named counter by delta (no-op on a nil receiver, so
// instrumented code does not need nil checks).
func (c *Counters) Add(name string, delta int64) {
	if c == nil || delta == 0 {
		return
	}
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the named counter's value (0 when absent or nil receiver).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if c == nil {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Table renders the counters as an aligned two-column table, sorted by
// name for deterministic output, with a trailing total row.
func (c *Counters) Table(title string) string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	var total int64
	for n, v := range snap {
		names = append(names, n)
		total += v
	}
	sort.Strings(names)
	t := NewTable(title, "counter", "value")
	for _, n := range names {
		t.AddRawRow(n, snap[n])
	}
	t.AddRawRow("total", total)
	return t.String()
}
