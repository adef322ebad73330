// SLO burn-rate alerting over the monitor's sweep stream.
//
// An SLO is a declarative statement over one sweep's (path, proxy) pairs —
// "99% of the fleet converges within 10s", "served staleness stays under
// 30s while degraded" — evaluated as an error fraction per sweep. Alerting
// follows the multi-window burn-rate recipe: the error budget is 1−Target,
// and an alert fires only when BOTH a short (fast) window and a long
// (slow) window burn budget faster than their thresholds. The fast window
// makes the alert prompt during a real outage; the slow window keeps a
// single bad sweep from paging. The alert clears after ClearSweeps
// consecutive sweeps back inside budget.
package monitor

import (
	"sort"
	"time"

	"configerator/internal/simnet"
)

// Sweep is one monitor fold handed to SLO evaluators.
type Sweep struct {
	At    time.Time
	Pairs []PairState
}

// PairState is one (path, proxy) observation within a sweep.
type PairState struct {
	Path  string
	Proxy simnet.NodeID

	// Behind means the proxy is not serving the committed head (silent
	// proxies count as behind). Lag is how long it has been behind;
	// BehindVersions how many committed versions it is missing.
	Behind         bool
	Lag            time.Duration
	BehindVersions int64
	Silent         bool

	// Degraded means the proxy serves this path with its update plane
	// down (the paper's stale-serve mode); Age is the served data's age.
	Degraded bool
	Age      time.Duration
}

// SLO declares a fleet objective checked every sweep.
type SLO struct {
	// Name labels alerts ("fleet-convergence").
	Name string
	// Target is the good fraction objective in (0,1), e.g. 0.99. The
	// error budget is 1 − Target.
	Target float64
	// Eval classifies one sweep: bad and total event counts. A sweep with
	// total == 0 is skipped (no data is not an outage).
	Eval func(Sweep) (bad, total int)

	// FastSweeps/SlowSweeps are the two burn windows in sweeps (defaults
	// 3 and 10). FastBurn/SlowBurn are the burn-rate thresholds each
	// window must exceed simultaneously (defaults 2× and 1× budget).
	// ClearSweeps is how many consecutive in-budget sweeps clear an
	// active alert (default 2).
	FastSweeps, SlowSweeps int
	FastBurn, SlowBurn     float64
	ClearSweeps            int
}

func (s *SLO) withDefaults() *SLO {
	c := *s
	if c.FastSweeps <= 0 {
		c.FastSweeps = 3
	}
	if c.SlowSweeps <= 0 {
		c.SlowSweeps = 10
	}
	if c.SlowSweeps < c.FastSweeps {
		c.SlowSweeps = c.FastSweeps
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 2
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 1
	}
	if c.ClearSweeps <= 0 {
		c.ClearSweeps = 2
	}
	return &c
}

// Alert is one SLO violation episode. ClearedAt is zero while active.
type Alert struct {
	SLO       string
	FiredAt   time.Time
	ClearedAt time.Time
	// FastBurn/SlowBurn are the window burn rates at fire time (multiples
	// of budget; 1.0 = burning exactly the budget).
	FastBurn, SlowBurn float64
	// Paths are the distinct paths contributing bad events at fire time.
	Paths []string
}

// Active reports whether the alert has not yet cleared.
func (a Alert) Active() bool { return a.ClearedAt.IsZero() }

// sloState is the rolling evaluation state for one SLO.
type sloState struct {
	slo *SLO
	// ring of recent error fractions (one per evaluated sweep).
	errs []float64
	// goodRun counts consecutive in-budget sweeps while an alert is
	// active.
	goodRun int
	active  *Alert
}

func newSLOState(s *SLO) *sloState {
	return &sloState{slo: s.withDefaults()}
}

// observe folds one sweep and returns alert transitions (fire and clear
// events). Called with the monitor lock held; transitions are delivered
// to callbacks after unlock. Fired alerts are appended to m.alerts.
func (ss *sloState) observe(m *Monitor, sw Sweep) []Alert {
	bad, total := ss.slo.Eval(sw)
	if total == 0 {
		return nil
	}
	errFrac := float64(bad) / float64(total)
	ss.errs = append(ss.errs, errFrac)
	if len(ss.errs) > ss.slo.SlowSweeps {
		ss.errs = ss.errs[len(ss.errs)-ss.slo.SlowSweeps:]
	}

	budget := 1 - ss.slo.Target
	if budget <= 0 {
		budget = 1e-9
	}
	fast := avgTail(ss.errs, ss.slo.FastSweeps) / budget
	slow := avgTail(ss.errs, len(ss.errs)) / budget

	var out []Alert
	if ss.active == nil {
		if fast > ss.slo.FastBurn && slow > ss.slo.SlowBurn {
			a := &Alert{
				SLO: ss.slo.Name, FiredAt: sw.At,
				FastBurn: fast, SlowBurn: slow,
				Paths: badPaths(ss.slo, sw),
			}
			ss.active = a
			ss.goodRun = 0
			m.alerts = append(m.alerts, a)
			out = append(out, *a)
		}
		return out
	}
	// Active: clear only after ClearSweeps consecutive in-budget sweeps.
	if errFrac <= budget {
		ss.goodRun++
	} else {
		ss.goodRun = 0
	}
	if ss.goodRun >= ss.slo.ClearSweeps {
		ss.active.ClearedAt = sw.At
		out = append(out, *ss.active)
		ss.active = nil
		ss.goodRun = 0
		ss.errs = ss.errs[:0]
	}
	return out
}

// avgTail averages the last n entries (n clamped to len).
func avgTail(xs []float64, n int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if n > len(xs) {
		n = len(xs)
	}
	if n <= 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs[len(xs)-n:] {
		s += x
	}
	return s / float64(n)
}

// badPaths lists the distinct paths with at least one bad event in the
// sweep, per the SLO's own classifier run path-by-path.
func badPaths(s *SLO, sw Sweep) []string {
	byPath := make(map[string][]PairState)
	for _, p := range sw.Pairs {
		byPath[p.Path] = append(byPath[p.Path], p)
	}
	var out []string
	for path, pairs := range byPath {
		if bad, _ := s.Eval(Sweep{At: sw.At, Pairs: pairs}); bad > 0 {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// ConvergenceSLO declares "target fraction of (path, proxy) pairs serve
// the committed head, or have been behind for no more than `within`". The
// grace is measured from when the pair fell behind (behindSince), not
// from the head's age — under continuous writes the head keeps advancing,
// so head age would never accumulate and mask real lag.
func ConvergenceSLO(target float64, within time.Duration) *SLO {
	return &SLO{
		Name:   "fleet-convergence",
		Target: target,
		Eval: func(sw Sweep) (bad, total int) {
			for _, p := range sw.Pairs {
				total++
				if p.Behind && p.Lag >= within {
					bad++
				}
			}
			return bad, total
		},
	}
}

// StalenessSLO declares "target fraction of degraded (stale-served)
// pairs serve data younger than maxAge". Pairs not in degraded mode are
// good by definition — the objective bounds how stale degraded serving
// may get, it does not forbid degraded serving.
func StalenessSLO(target float64, maxAge time.Duration) *SLO {
	return &SLO{
		Name:   "staleness-under-degraded",
		Target: target,
		Eval: func(sw Sweep) (bad, total int) {
			for _, p := range sw.Pairs {
				total++
				if p.Degraded && p.Age > maxAge {
					bad++
				}
			}
			return bad, total
		},
	}
}
