// Convergence heartbeats: the proxy's contribution to the fleet-health
// monitoring plane. When enabled, the proxy periodically reports the
// (version, zxid, content-hash) it serves for every cached path, plus its
// staleness source (plane down or not), to a monitor node on the sim
// clock. The monitor folds these against the Zeus commit watermarks into
// per-path fleet convergence and straggler lists.
//
// The heartbeat types live here — not in internal/monitor — so the
// dependency points one way: monitor imports proxy, never the reverse.
//
// Heartbeats run entirely on the simulation loop (a timer tick reading
// the snapshot's cells), so enabling monitoring adds zero work to the
// zero-alloc read hot path.

package proxy

import (
	"slices"
	"strings"
	"time"

	"configerator/internal/simnet"
)

// PathState is one path's served state as reported in a heartbeat.
type PathState struct {
	Path    string
	Version int64
	Zxid    int64
	Hash    uint64
	// Fetched is when the proxy materialized the version it serves — the
	// exact virtual-clock instant the monitor uses for time-to-head, so
	// heartbeat cadence only delays when a measurement is recorded, never
	// distorts its value.
	Fetched time.Time
}

// MsgMonitorHeartbeat is the periodic fleet-health report a proxy sends
// to its monitor node.
type MsgMonitorHeartbeat struct {
	Proxy     simnet.NodeID
	At        time.Time
	PlaneDown bool // serving degraded (every observer considered dead)
	Paths     []PathState
}

// heartbeatEntryBytes approximates the wire size of one PathState beyond
// its path string (version+zxid+hash+timestamp).
const heartbeatEntryBytes = 32

type msgTickMonitor struct{}

// EnableMonitor starts convergence heartbeats to the target monitor node,
// one every `every`. Driver/simulation thread only.
func (p *Proxy) EnableMonitor(target simnet.NodeID, every time.Duration) {
	armed := p.monTarget != ""
	p.monTarget = target
	p.monEvery = every
	if !armed && target != "" {
		p.net.SetTimer(p.id, every, msgTickMonitor{})
	}
}

// onTickMonitor builds and sends one heartbeat from the current read
// snapshot, then re-arms the tick.
func (p *Proxy) onTickMonitor(ctx *simnet.Context) {
	if p.monTarget == "" {
		return
	}
	ctx.SetTimer(p.monEvery, msgTickMonitor{})
	snap := p.snap.Load()
	hb := MsgMonitorHeartbeat{
		Proxy:     p.id,
		At:        ctx.Now(),
		PlaneDown: snap.planeDown,
	}
	size := 0
	p.each(func(c *cell) {
		st := p.mem(c)
		if st == nil || !st.e.Exists {
			return
		}
		e := st.e
		hb.Paths = append(hb.Paths, PathState{
			Path: e.Path, Version: e.Version, Zxid: e.Zxid,
			Hash: e.Hash, Fetched: e.Fetched,
		})
		size += len(e.Path) + heartbeatEntryBytes
	})
	// Sorted, not in map order: same seed, same heartbeat.
	slices.SortFunc(hb.Paths, func(a, b PathState) int { return strings.Compare(a.Path, b.Path) })
	ctx.SendSized(p.monTarget, hb, size)
	p.Obs.Add("proxy.monitor.heartbeat", 1)
}
