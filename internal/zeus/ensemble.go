package zeus

import (
	"fmt"

	"configerator/internal/obs"
	"configerator/internal/simnet"
)

// Ensemble wires a Zeus deployment onto a simnet: N members spread across
// regions plus any number of per-cluster observers.
type Ensemble struct {
	Net       *simnet.Network
	Members   []simnet.NodeID
	Servers   map[simnet.NodeID]*Server
	Observers map[simnet.NodeID]*Observer

	// Obs instruments commit and apply events ensemble-wide; set it with
	// SetObs before driving traffic.
	Obs *obs.Registry
}

// SetObs attaches an observability registry to every current member and
// observer; observers added later inherit it.
func (e *Ensemble) SetObs(r *obs.Registry) {
	e.Obs = r
	for _, s := range e.Servers {
		s.Obs = r
	}
	for _, o := range e.Observers {
		o.Obs = r
	}
}

// StartEnsemble creates n members placed round-robin over the given
// placements and arms their timers. Run the network for a few seconds of
// virtual time to elect the first leader.
func StartEnsemble(net *simnet.Network, n int, placements []simnet.Placement) *Ensemble {
	if n < 1 || len(placements) == 0 {
		panic("zeus: ensemble needs members and placements")
	}
	e := &Ensemble{
		Net:       net,
		Servers:   make(map[simnet.NodeID]*Server),
		Observers: make(map[simnet.NodeID]*Observer),
	}
	for i := 0; i < n; i++ {
		e.Members = append(e.Members, simnet.NodeID(fmt.Sprintf("zeus-%d", i)))
	}
	for i, id := range e.Members {
		s := NewServer(id, i, e.Members)
		e.Servers[id] = s
		net.AddNode(id, placements[i%len(placements)], s)
	}
	// Arm timers via a zero-delay self event.
	for _, id := range e.Members {
		id := id
		net.SetTimer(id, 0, msgTickFollower{})
	}
	return e
}

// AddObserver creates an observer at the placement and arms its timers.
func (e *Ensemble) AddObserver(id simnet.NodeID, p simnet.Placement) *Observer {
	o := NewObserver(id, e.Members)
	o.Obs = e.Obs
	e.Observers[id] = o
	e.Net.AddNode(id, p, o)
	e.Net.SetTimer(id, 0, msgTickObserver{})
	return o
}

// Leader returns the current leader's id ("" if none elected). With
// multiple epochs in play the highest epoch wins.
func (e *Ensemble) Leader() simnet.NodeID {
	var best simnet.NodeID
	var bestEpoch int64 = -1
	for id, s := range e.Servers {
		if s.Role() == RoleLeader && s.Epoch() > bestEpoch && !e.Net.IsDown(id) {
			best = id
			bestEpoch = s.Epoch()
		}
	}
	return best
}

// LeaderServer returns the current leader's server (nil if none).
func (e *Ensemble) LeaderServer() *Server {
	if id := e.Leader(); id != "" {
		return e.Servers[id]
	}
	return nil
}

// Watermarks exports the committed (zxid, content-hash) high-water mark of
// every path from the current leader's tree — the convergence monitor's
// source of truth. Nil when no leader is elected (the monitor keeps its
// last-known heads across leaderless windows).
func (e *Ensemble) Watermarks() []Watermark {
	s := e.LeaderServer()
	if s == nil {
		return nil
	}
	return s.Tree().Watermarks()
}
