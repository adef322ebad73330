// Package vclock provides the clock abstraction used across the repository.
//
// Simulations (the Zeus ensemble, the P2P swarms, the commit pipeline) run
// on a Virtual clock so that experiments with hundreds of thousands of
// simulated servers and multi-day workloads finish in milliseconds of real
// time and are bit-for-bit reproducible. Benchmarks that measure the real
// cost of our own data structures use the Real clock.
package vclock

import (
	"sync/atomic"
	"time"
)

// Clock is the minimal time source dependency taken by every component.
type Clock interface {
	Now() time.Time
}

// Epoch is the arbitrary simulation start time. Using a fixed epoch keeps
// all simulated timestamps deterministic.
var Epoch = time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a manually advanced clock. The discrete-event simulator that
// drives it is single-threaded, but readers may call Now concurrently with
// the simulation loop: the read hot path (proxy snapshot reads from
// application goroutines racing against watch deliveries) observes the
// clock lock-free. Time is therefore kept as an atomic nanosecond offset
// from a fixed base; Advance/AdvanceTo remain single-writer (the simulator
// loop), Now is safe — and allocation-free — from any goroutine.
type Virtual struct {
	base time.Time
	off  atomic.Int64 // nanoseconds since base
}

// NewVirtual returns a virtual clock starting at Epoch.
func NewVirtual() *Virtual {
	return &Virtual{base: Epoch}
}

// Now reports the current virtual time. Safe for concurrent use.
func (v *Virtual) Now() time.Time { return v.base.Add(time.Duration(v.off.Load())) }

// Advance moves the clock forward by d. It panics on negative d: time in a
// discrete-event simulation never flows backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("vclock: Advance with negative duration")
	}
	v.off.Add(int64(d))
}

// AdvanceTo moves the clock to t if t is later than now; earlier times are
// ignored (the event queue may contain events scheduled "now").
func (v *Virtual) AdvanceTo(t time.Time) {
	target := t.Sub(v.base)
	for {
		cur := time.Duration(v.off.Load())
		if target <= cur {
			return
		}
		if v.off.CompareAndSwap(int64(cur), int64(target)) {
			return
		}
	}
}

// Real is the wall clock.
type Real struct{}

// Now reports the current wall-clock time.
func (Real) Now() time.Time { return time.Now() }
