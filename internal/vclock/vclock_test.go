package vclock

import (
	"testing"
	"time"
)

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	start := v.Now()
	v.Advance(5 * time.Second)
	if got := v.Now().Sub(start); got != 5*time.Second {
		t.Errorf("Since = %v, want 5s", got)
	}
}

func TestVirtualNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative Advance")
		}
	}()
	NewVirtual().Advance(-time.Second)
}

func TestRealClock(t *testing.T) {
	var r Real
	before := time.Now()
	got := r.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("Real.Now out of range")
	}
}
