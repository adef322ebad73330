package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("parse.hit", 2)
	c.Add("parse.hit", 3)
	c.Add("parse.miss", 1)
	if got := c.Get("parse.hit"); got != 5 {
		t.Errorf("Get(parse.hit) = %d", got)
	}
	if got := c.Get("absent"); got != 0 {
		t.Errorf("Get(absent) = %d", got)
	}
	snap := c.Snapshot()
	c.Add("parse.hit", 10)
	if snap["parse.hit"] != 5 {
		t.Error("Snapshot must be detached from live counters")
	}
	tbl := c.Table("title")
	if !strings.Contains(tbl, "title") || !strings.Contains(tbl, "parse.hit") {
		t.Errorf("Table = %q", tbl)
	}
	// Sorted rows: hit before miss.
	if strings.Index(tbl, "parse.hit") > strings.Index(tbl, "parse.miss") {
		t.Error("Table rows not sorted by counter name")
	}
	// Total row trails the sorted counters: 15 + 1 at snapshot+10 time.
	if !strings.Contains(tbl, "total") || strings.Index(tbl, "total") < strings.Index(tbl, "parse.miss") {
		t.Errorf("Table missing trailing total row: %q", tbl)
	}
	if !strings.Contains(tbl, "16") {
		t.Errorf("Table total should be 16: %q", tbl)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Add("x", 1) // must not panic
	if c.Get("x") != 0 {
		t.Error("nil Get")
	}
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Errorf("nil Snapshot = %v, want empty", snap)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("n"); got != 8000 {
		t.Errorf("n = %d, want 8000", got)
	}
}
