// Status: the operator-facing snapshot behind `configerator status`.
//
// Status() is safe from any goroutine (it copies under the monitor lock)
// and both renderings (Text, and MarshalJSON for encoding/json) are
// deterministic: paths, stragglers, and alerts come out in a fixed order
// so goldens and -json diffs are stable.
package monitor

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// PathStatus is one path's convergence state as of the last sweep.
type PathStatus struct {
	Path        string
	HeadVersion int64
	HeadZxid    int64
	HeadHash    uint64
	AtHead      int // proxies serving the committed head
	Total       int // proxies that serve this path at all
	Fraction    float64
}

// Straggler names one (proxy, path) pair lagging the fleet.
type Straggler struct {
	Proxy          simnet.NodeID
	Path           string
	BehindVersions int64
	Lag            time.Duration
	Silent         bool
	Divergent      bool // the head's zxid with different bytes
}

// Status is a point-in-time snapshot of the monitor's folded state.
type Status struct {
	At         time.Time
	Sweeps     int64
	Proxies    int
	Paths      []PathStatus
	Stragglers []Straggler
	Alerts     []Alert // fire order; cleared alerts keep their ClearedAt

	// Propagation quantiles from the continuous time-to-head histogram
	// (zero when no registry or no samples yet).
	TimeToHeadP50 time.Duration
	TimeToHeadP99 time.Duration
}

// ActiveAlerts returns the subset of Alerts still firing.
func (s Status) ActiveAlerts() []Alert {
	var out []Alert
	for _, a := range s.Alerts {
		if a.Active() {
			out = append(out, a)
		}
	}
	return out
}

// Status snapshots the monitor. Nil-safe: a nil monitor yields a zero
// Status.
func (m *Monitor) Status() Status {
	if m == nil {
		return Status{}
	}
	m.mu.Lock()
	st := Status{
		At:         m.lastAt,
		Sweeps:     m.sweeps,
		Proxies:    len(m.proxies),
		Paths:      append([]PathStatus(nil), m.lastPaths...),
		Stragglers: append([]Straggler(nil), m.lastStragglers...),
	}
	for _, a := range m.alerts {
		st.Alerts = append(st.Alerts, *a)
	}
	m.mu.Unlock()
	st.TimeToHeadP50 = m.cfg.Obs.Histogram(HistTimeToHead).Quantile(0.50)
	st.TimeToHeadP99 = m.cfg.Obs.Histogram(HistTimeToHead).Quantile(0.99)
	return st
}

// Registry returns the monitor's obs registry (may be nil).
func (m *Monitor) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.cfg.Obs
}

// Text renders the status as an operator console view.
func (s Status) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet status @ %s (sweep %d, %d proxies)\n",
		fmtInstant(s.At), s.Sweeps, s.Proxies)
	if s.TimeToHeadP50 > 0 || s.TimeToHeadP99 > 0 {
		fmt.Fprintf(&b, "propagation time-to-head: p50=%s p99=%s\n",
			s.TimeToHeadP50, s.TimeToHeadP99)
	}

	b.WriteString("\nconvergence:\n")
	if len(s.Paths) == 0 {
		b.WriteString("  (no tracked paths)\n")
	}
	for _, p := range s.Paths {
		fmt.Fprintf(&b, "  %-40s v%-4d %3d/%-3d at head (%.0f%%)\n",
			p.Path, p.HeadVersion, p.AtHead, p.Total, p.Fraction*100)
	}

	b.WriteString("\nstragglers:\n")
	if len(s.Stragglers) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, st := range s.Stragglers {
		why := fmt.Sprintf("%d versions, %s behind", st.BehindVersions, st.Lag)
		if st.Divergent {
			why = "diverged (same zxid, different bytes)"
		}
		if st.Silent {
			why += ", silent"
		}
		fmt.Fprintf(&b, "  %-12s %-40s %s\n", st.Proxy, st.Path, why)
	}

	b.WriteString("\nalerts:\n")
	if len(s.Alerts) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, a := range s.Alerts {
		state := "ACTIVE"
		if !a.Active() {
			state = "cleared " + fmtInstant(a.ClearedAt)
		}
		fmt.Fprintf(&b, "  [%s] %s fired %s (fast %.1fx, slow %.1fx) paths=%s\n",
			state, a.SLO, fmtInstant(a.FiredAt), a.FastBurn, a.SlowBurn,
			strings.Join(a.Paths, ","))
	}
	return b.String()
}

// MarshalJSON encodes the status for `configerator status -json`:
// instants in Unix milliseconds (0 for none), durations in milliseconds,
// fraction to four decimals and burn rates to two.
func (s Status) MarshalJSON() ([]byte, error) {
	type path struct {
		Path        string      `json:"path"`
		HeadVersion int64       `json:"head_version"`
		HeadZxid    int64       `json:"head_zxid"`
		AtHead      int         `json:"at_head"`
		Total       int         `json:"total"`
		Fraction    json.Number `json:"fraction"`
	}
	type straggler struct {
		Proxy          simnet.NodeID `json:"proxy"`
		Path           string        `json:"path"`
		BehindVersions int64         `json:"behind_versions"`
		LagMS          int64         `json:"lag_ms"`
		Silent         bool          `json:"silent"`
		Divergent      bool          `json:"divergent,omitempty"`
	}
	type alert struct {
		SLO       string      `json:"slo"`
		FiredMS   int64       `json:"fired_ms"`
		ClearedMS int64       `json:"cleared_ms"`
		Active    bool        `json:"active"`
		FastBurn  json.Number `json:"fast_burn"`
		SlowBurn  json.Number `json:"slow_burn"`
		Paths     []string    `json:"paths"`
	}
	out := struct {
		AtMS          int64       `json:"at_ms"`
		Sweeps        int64       `json:"sweeps"`
		Proxies       int         `json:"proxies"`
		TimeToHeadP50 int64       `json:"time_to_head_p50_ms"`
		TimeToHeadP99 int64       `json:"time_to_head_p99_ms"`
		Paths         []path      `json:"paths"`
		Stragglers    []straggler `json:"stragglers"`
		Alerts        []alert     `json:"alerts"`
	}{
		AtMS: unixMS(s.At), Sweeps: s.Sweeps, Proxies: s.Proxies,
		TimeToHeadP50: s.TimeToHeadP50.Milliseconds(), TimeToHeadP99: s.TimeToHeadP99.Milliseconds(),
		Paths: []path{}, Stragglers: []straggler{}, Alerts: []alert{},
	}
	for _, p := range s.Paths {
		out.Paths = append(out.Paths, path{p.Path, p.HeadVersion, p.HeadZxid, p.AtHead, p.Total, fixed(p.Fraction, 4)})
	}
	for _, st := range s.Stragglers {
		out.Stragglers = append(out.Stragglers, straggler{st.Proxy, st.Path, st.BehindVersions, st.Lag.Milliseconds(), st.Silent, st.Divergent})
	}
	for _, a := range s.Alerts {
		out.Alerts = append(out.Alerts, alert{a.SLO, unixMS(a.FiredAt), unixMS(a.ClearedAt), a.Active(),
			fixed(a.FastBurn, 2), fixed(a.SlowBurn, 2), append([]string{}, a.Paths...)})
	}
	return json.Marshal(out)
}

// fixed spells f with prec decimals.
func fixed(f float64, prec int) json.Number {
	return json.Number(strconv.FormatFloat(f, 'f', prec, 64))
}

func fmtInstant(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.UTC().Format("15:04:05.000")
}

func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

func sortPathStatus(ps []PathStatus) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Path < ps[j].Path })
}

func sortStragglers(ss []Straggler) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Path != ss[j].Path {
			return ss[i].Path < ss[j].Path
		}
		return ss[i].Proxy < ss[j].Proxy
	})
}
