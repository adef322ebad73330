// Package vclock provides the clock abstraction used across the repository.
//
// Simulations (the Zeus ensemble, the P2P swarms, the commit pipeline) run
// on virtual time — a simnet.Network's clock, or a Virtual clock where no
// network runs — so that experiments with hundreds of thousands of
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

// Virtual is a manually advanced clock, for a component that runs without
// a simulated network (a standalone pipeline). A simnet.Network keeps its
// own clock and satisfies Clock itself. Advance is single-writer; Now is
// safe, and allocation-free, from any goroutine: time is an atomic
// nanosecond offset from a fixed base.
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

// Real is the wall clock.
type Real struct{}

// Now reports the current wall-clock time.
func (Real) Now() time.Time { return time.Now() }
