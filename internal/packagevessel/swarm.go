package packagevessel

import (
	"fmt"
	"time"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// SwarmBps is the link speed of a swarm's registry and agents: 1 Gbit/s
// each way, in bytes per second.
const SwarmBps = 1.25e8

// Swarm is a registry, its tracker and a fleet of agents on one network:
// the one layout every PackageVessel experiment, demo and test runs on.
type Swarm struct {
	Net      *simnet.Network
	Registry *Registry
	Tracker  *Tracker
	Agents   []*Agent
}

// NewSwarm lays out a swarm on a fresh network seeded with seed. The
// registry and then the tracker sit at us/store; agent i follows as srv-i in
// cluster c(i mod clusters), in region eu when there are several clusters
// and i mod clusters >= clusters/2, in us otherwise. The registry and every
// agent get SwarmBps links; the tracker keeps the network default. The
// tracker's holder budget is the caller's to set.
func NewSwarm(seed uint64, agents, clusters int) *Swarm {
	net := simnet.New(simnet.DefaultLatency(), seed)
	store := simnet.Placement{Region: "us", Cluster: "store"}
	s := &Swarm{Net: net, Registry: NewRegistry(net, "registry", store, "tracker")}
	net.SetBandwidth("registry", SwarmBps, SwarmBps)
	s.Tracker = NewTracker(net, "tracker", store)
	for i := 0; i < agents; i++ {
		p := simnet.Placement{Region: "us", Cluster: fmt.Sprintf("c%d", i%clusters)}
		if clusters > 1 && i%clusters >= clusters/2 {
			p.Region = "eu"
		}
		id := simnet.NodeID(fmt.Sprintf("srv-%d", i))
		s.Agents = append(s.Agents, NewAgent(net, id, p, Options{}))
		net.SetBandwidth(id, SwarmBps, SwarmBps)
	}
	return s
}

// Delivery is one agent's completed transfer.
type Delivery struct {
	Agent *Agent
	Took  time.Duration
	Stats TransferStats
}

// deliverStep is the simulated time Deliver runs between checks for a
// complete fleet.
const deliverStep = 5 * time.Second

// Deliver announces m to every agent, naming tracker as the swarm
// coordinator ("" for none: the registry is then the only holder), and runs
// the network deliverStep at a time until every agent has completed or
// deadline has passed. It returns the completions in the order they
// happened.
func (s *Swarm) Deliver(m blob.Manifest, tracker simnet.NodeID, deadline time.Duration) []Delivery {
	meta := MetadataFor(m, s.Registry.ID(), tracker)
	var done []Delivery
	for _, a := range s.Agents {
		a.OnComplete(func(_ blob.Manifest, took time.Duration, st TransferStats) {
			done = append(done, Delivery{Agent: a, Took: took, Stats: st})
		})
		a.OnAnnounce(meta)
	}
	for waited := time.Duration(0); waited < deadline && len(done) < len(s.Agents); waited += deliverStep {
		s.Net.RunFor(deliverStep)
	}
	return done
}
