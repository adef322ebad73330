// Package monitor is the continuous fleet-health plane: the always-on
// operator view the paper's operational story implies (§6.3 propagation
// measurement, §4.1 stale-serve visibility) but that a per-commit trace
// cannot provide at fleet scale.
//
// A Monitor is one simnet node. Zeus exports per-path convergence
// watermarks — the committed (zxid, content-hash) high-water mark — and
// every proxy heartbeats the (version, zxid, hash) it actually serves plus
// its staleness source. On a fixed sweep cadence the monitor folds the two
// together into:
//
//   - per-path fleet convergence (the fraction of the fleet serving the
//     committed head, or serving nothing once the path is deleted),
//   - a continuous time-to-head distribution (the §6.3 propagation
//     latency, measured on every commit rather than one traced change),
//   - a straggler list naming proxies more than K versions or T seconds
//     behind (or silent altogether), and
//   - SLO burn-rate alerts (slo.go) that fire during infrastructure
//     outages and clear after heal.
//
// Everything the monitor learns arrives via messages on the simulation
// loop; its folded state is guarded by a mutex so `configerator status`
// (or any driver goroutine) can snapshot it concurrently via Status.
package monitor

import (
	"sync"
	"time"

	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// Defaults for Config zero values.
const (
	DefaultSweepEvery     = 2 * time.Second
	DefaultHeartbeatEvery = 1 * time.Second
)

// A proxy is a straggler when it serves a path more than stragglerVersions
// behind the head, or has been behind for longer than stragglerAge.
const (
	stragglerVersions = 2
	stragglerAge      = 10 * time.Second
)

// Config wires a Monitor.
type Config struct {
	// ID is the monitor's node id (default "monitor").
	ID simnet.NodeID
	// Ensemble supplies the commit watermarks (leader tree).
	Ensemble *zeus.Ensemble
	// Obs receives the monitor's counters and histograms (nil-safe: a nil
	// registry disables export, not monitoring).
	Obs *obs.Registry
	// SweepEvery is the watermark-fold cadence (default 2s).
	SweepEvery time.Duration
	// HeartbeatEvery is the proxy heartbeat cadence the fleet wiring
	// passes to Proxy.EnableMonitor (default 1s).
	HeartbeatEvery time.Duration
	// SLOs are evaluated every sweep (see slo.go).
	SLOs []*SLO
	// OnAlert fires on every alert transition: once when an alert fires
	// (ClearedAt zero) and once when it clears. Called outside the
	// monitor's lock, on the simulation thread.
	OnAlert func(Alert)
}

func (c Config) withDefaults() Config {
	if c.ID == "" {
		c.ID = "monitor"
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = DefaultSweepEvery
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	return c
}

// Histogram names the monitor feeds (exported so experiments and status
// read the same keys).
const (
	HistTimeToHead = "monitor.time_to_head" // commit → proxy-at-head
	HistStaleness  = "monitor.staleness"    // served age while degraded
)

// msgTickSweep is the sweep timer.
type msgTickSweep struct{}

// proxyState is the monitor's last-heartbeat view of one proxy.
type proxyState struct {
	lastSeen  time.Time
	planeDown bool
	paths     map[string]proxy.PathState
}

// pathTrack is the monitor's per-path fold state.
type pathTrack struct {
	head zeus.Watermark
	// members are proxies that have ever reported serving this path — the
	// denominator of the convergence fraction. A proxy that crashes keeps
	// its membership (and its stale last report), which is exactly what
	// makes it show up as behind.
	members map[simnet.NodeID]bool
	// headSeen is the highest head zxid each proxy has been credited as
	// reaching, so time-to-head is observed once per (proxy, version).
	headSeen map[simnet.NodeID]int64
	// behindSince marks when each proxy was first observed behind the
	// current head (cleared on catch-up) — the lag the SLO grace windows
	// and straggler ages are measured from.
	behindSince map[simnet.NodeID]time.Time
}

// Monitor is the fleet-health node. All exported methods are nil-safe.
type Monitor struct {
	cfg Config

	mu      sync.Mutex
	proxies map[simnet.NodeID]*proxyState
	paths   map[string]*pathTrack
	slos    []*sloState
	alerts  []*Alert // every alert ever fired, in fire order
	sweeps  int64
	lastAt  time.Time

	// Per-sweep snapshots behind Status.
	lastPaths      []PathStatus
	lastStragglers []Straggler
}

// New builds a monitor (attach it to a network with Attach).
func New(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:     cfg,
		proxies: make(map[simnet.NodeID]*proxyState),
		paths:   make(map[string]*pathTrack),
	}
	for _, s := range cfg.SLOs {
		m.slos = append(m.slos, newSLOState(s))
	}
	return m
}

// ID returns the monitor's node id.
func (m *Monitor) ID() simnet.NodeID {
	if m == nil {
		return ""
	}
	return m.cfg.ID
}

// Config returns the effective (defaulted) configuration.
func (m *Monitor) Config() Config {
	if m == nil {
		return Config{}
	}
	return m.cfg
}

// Attach adds the monitor to the network at the placement and arms the
// sweep timer.
func (m *Monitor) Attach(net *simnet.Network, p simnet.Placement) {
	if m == nil {
		return
	}
	net.AddNode(m.cfg.ID, p, m)
	net.SetTimer(m.cfg.ID, m.cfg.SweepEvery, msgTickSweep{})
}

// HandleMessage implements simnet.Handler.
func (m *Monitor) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch msg := msg.(type) {
	case proxy.MsgMonitorHeartbeat:
		m.onHeartbeat(msg)
	case simnet.Restarted:
		// The crash took the sweep timer: start a new chain.
		ctx.SetTimer(m.cfg.SweepEvery, msgTickSweep{})
	case msgTickSweep:
		ctx.SetTimer(m.cfg.SweepEvery, msg)
		m.Sweep(ctx.Now())
	}
}

// onHeartbeat folds one proxy report.
func (m *Monitor) onHeartbeat(hb proxy.MsgMonitorHeartbeat) {
	m.mu.Lock()
	ps := m.proxies[hb.Proxy]
	if ps == nil {
		ps = &proxyState{}
		m.proxies[hb.Proxy] = ps
	}
	ps.lastSeen = hb.At
	ps.planeDown = hb.PlaneDown
	ps.paths = make(map[string]proxy.PathState, len(hb.Paths))
	for _, st := range hb.Paths {
		ps.paths[st.Path] = st
		pt := m.trackLocked(st.Path)
		pt.members[hb.Proxy] = true
	}
	m.mu.Unlock()
	m.cfg.Obs.Add("monitor.heartbeats", 1)
}

func (m *Monitor) trackLocked(path string) *pathTrack {
	pt := m.paths[path]
	if pt == nil {
		pt = &pathTrack{
			members:     make(map[simnet.NodeID]bool),
			headSeen:    make(map[simnet.NodeID]int64),
			behindSince: make(map[simnet.NodeID]time.Time),
		}
		m.paths[path] = pt
	}
	return pt
}

// Sweep runs one convergence fold at the given instant: refresh
// watermarks from the leader, compare every (path, proxy) pair, update
// histograms and stragglers, and evaluate the SLOs. Normally driven by
// the sweep timer; exported so tests and experiments can force a fold.
func (m *Monitor) Sweep(now time.Time) {
	if m == nil {
		return
	}
	var wms []zeus.Watermark
	if m.cfg.Ensemble != nil {
		wms = m.cfg.Ensemble.Watermarks()
	}

	m.mu.Lock()
	for _, wm := range wms {
		pt := m.trackLocked(wm.Path)
		if wm.Zxid > pt.head.Zxid {
			pt.head = wm
		}
	}

	silentAfter := 2 * m.cfg.SweepEvery
	if hb := 3 * m.cfg.HeartbeatEvery; hb > silentAfter {
		silentAfter = hb
	}

	sweep := Sweep{At: now}
	var (
		stragglers []Straggler
		pathStats  []PathStatus
	)

	var credited, staleAges []time.Duration

	for path, pt := range m.paths {
		if pt.head.Zxid == 0 || len(pt.members) == 0 {
			continue
		}
		st := PathStatus{
			Path:        path,
			HeadVersion: pt.head.Version,
			HeadZxid:    pt.head.Zxid,
			HeadHash:    pt.head.Hash,
		}
		for id := range pt.members {
			ps := m.proxies[id]
			reported, have := ps.paths[path]
			silent := now.Sub(ps.lastSeen) > silentAfter
			// A deleted head is reached by serving nothing at the path.
			atHead := !silent && (have && reported.Zxid >= pt.head.Zxid || !have && pt.head.Deleted)
			if atHead && reported.Zxid == pt.head.Zxid && reported.Hash != pt.head.Hash {
				// Same zxid, different bytes: a divergent replica is worse
				// than a stale one.
				atHead = false
				m.cfg.Obs.Add("monitor.hash.mismatch", 1)
			}
			pair := PairState{Path: path, Proxy: id}
			st.Total++
			if atHead {
				st.AtHead++
				delete(pt.behindSince, id)
				if pt.headSeen[id] < pt.head.Zxid {
					pt.headSeen[id] = pt.head.Zxid
					if d := reported.Fetched.Sub(pt.head.At); d >= 0 && !pt.head.At.IsZero() {
						credited = append(credited, d)
					}
				}
			} else {
				pair.Behind = true
				bs, ok := pt.behindSince[id]
				if !ok {
					bs = now
					pt.behindSince[id] = bs
				}
				pair.Lag = now.Sub(bs)
				switch {
				case pt.head.Deleted:
					pair.BehindVersions = 1 // it still serves what was deleted
				case have:
					pair.BehindVersions = pt.head.Version - reported.Version
				default:
					pair.BehindVersions = pt.head.Version
				}
				pair.Silent = silent
			}
			if have && ps.planeDown && !silent {
				pair.Degraded = true
				pair.Age = now.Sub(reported.Fetched)
				staleAges = append(staleAges, pair.Age)
			}
			sweep.Pairs = append(sweep.Pairs, pair)
			if pair.Behind && (pair.BehindVersions > stragglerVersions ||
				pair.Lag > stragglerAge) {
				stragglers = append(stragglers, Straggler{
					Proxy: id, Path: path,
					BehindVersions: pair.BehindVersions,
					Lag:            pair.Lag,
					Silent:         pair.Silent,
				})
			}
		}
		if st.Total > 0 {
			st.Fraction = float64(st.AtHead) / float64(st.Total)
		}
		pathStats = append(pathStats, st)
	}

	sortPathStatus(pathStats)
	sortStragglers(stragglers)
	m.lastPaths = pathStats
	m.lastStragglers = stragglers
	m.sweeps++
	m.lastAt = now

	// Evaluate SLO burn windows and collect transitions.
	var transitions []Alert
	for _, ss := range m.slos {
		transitions = append(transitions, ss.observe(m, sweep)...)
	}
	m.mu.Unlock()

	// Export (outside the lock: histograms have their own).
	reg := m.cfg.Obs
	for _, d := range credited {
		reg.Observe(HistTimeToHead, d)
	}
	for _, a := range staleAges {
		reg.Observe(HistStaleness, a)
	}
	reg.Add("monitor.sweeps", 1)

	for _, a := range transitions {
		if a.ClearedAt.IsZero() {
			reg.Add("monitor.alert.fired", 1)
		} else {
			reg.Add("monitor.alert.cleared", 1)
		}
		if m.cfg.OnAlert != nil {
			m.cfg.OnAlert(a)
		}
	}
}
