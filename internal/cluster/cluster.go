// Package cluster wires the full production topology of Figure 3 onto a
// simnet: a multi-region Zeus ensemble, per-cluster observers, a
// Configerator proxy on every server, and application client libraries —
// plus the health model the canary service samples.
package cluster

import (
	"fmt"
	"sort"

	"configerator/internal/confclient"
	"configerator/internal/health"
	"configerator/internal/monitor"
	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// ClusterSpec describes one cluster.
type ClusterSpec struct {
	Name    string
	Servers int
}

// RegionSpec describes one region.
type RegionSpec struct {
	Name     string
	Clusters []ClusterSpec
}

// Config sizes a fleet.
type Config struct {
	Regions             []RegionSpec
	ZeusMembers         int
	ObserversPerCluster int
	Seed                uint64

	// Obs, when set, instruments the whole fleet — Zeus commits, observer
	// applies, proxy materializes, and client reads all report into it.
	Obs *obs.Registry
}

// SmallConfig is a laptop-friendly topology: 2 regions x 2 clusters with
// the given servers per cluster.
func SmallConfig(serversPerCluster int, seed uint64) Config {
	return Config{
		Regions: []RegionSpec{
			{Name: "us-west", Clusters: []ClusterSpec{
				{Name: "uw1", Servers: serversPerCluster},
				{Name: "uw2", Servers: serversPerCluster},
			}},
			{Name: "us-east", Clusters: []ClusterSpec{
				{Name: "ue1", Servers: serversPerCluster},
				{Name: "ue2", Servers: serversPerCluster},
			}},
		},
		ZeusMembers:         5,
		ObserversPerCluster: 2,
		Seed:                seed,
	}
}

// Server is one production server: its proxy and client library.
type Server struct {
	ID        simnet.NodeID
	Placement simnet.Placement
	Proxy     *proxy.Proxy
	Client    *confclient.Client
}

// Fleet is the assembled deployment.
type Fleet struct {
	Net      *simnet.Network
	Ensemble *zeus.Ensemble
	// Obs is the fleet-wide observability registry (nil when not
	// configured); the pipeline inherits it unless given its own.
	Obs *obs.Registry
	// Monitor is the fleet-health plane (nil until AttachMonitor).
	Monitor *monitor.Monitor

	servers   []*Server
	byID      map[simnet.NodeID]*Server
	byCluster map[string][]*Server
	observers map[string][]simnet.NodeID // cluster -> observer ids

	// watched are the config paths the "applications" on every server
	// subscribe to; the health model evaluates fault markers in them.
	watched map[string]bool

	// faults memoizes the default app model's decode of watched configs.
	faults map[string][]faultVersion
}

// New builds the fleet on a fresh network and elects the Zeus leader.
func New(cfg Config) *Fleet {
	net := simnet.New(simnet.DefaultLatency(), cfg.Seed)
	net.SetObs(cfg.Obs)
	f := &Fleet{
		Net:       net,
		Obs:       cfg.Obs,
		byID:      make(map[simnet.NodeID]*Server),
		byCluster: make(map[string][]*Server),
		observers: make(map[string][]simnet.NodeID),
		watched:   make(map[string]bool),
		faults:    make(map[string][]faultVersion),
	}

	// Zeus members spread round-robin across the first cluster of each
	// region (the paper runs the consensus across regions for resilience).
	var zeusPlacements []simnet.Placement
	for _, r := range cfg.Regions {
		zeusPlacements = append(zeusPlacements,
			simnet.Placement{Region: r.Name, Cluster: r.Clusters[0].Name + "-zk"})
	}
	if cfg.ZeusMembers < 1 {
		cfg.ZeusMembers = 5
	}
	f.Ensemble = zeus.StartEnsemble(net, cfg.ZeusMembers, zeusPlacements)
	f.Ensemble.SetObs(cfg.Obs)

	for _, r := range cfg.Regions {
		for _, c := range r.Clusters {
			place := simnet.Placement{Region: r.Name, Cluster: c.Name}
			// Observers for this cluster.
			var obsIDs []simnet.NodeID
			n := cfg.ObserversPerCluster
			if n < 1 {
				n = 2
			}
			for i := 0; i < n; i++ {
				id := simnet.NodeID(fmt.Sprintf("obs-%s-%d", c.Name, i))
				f.Ensemble.AddObserver(id, place)
				obsIDs = append(obsIDs, id)
			}
			f.observers[c.Name] = obsIDs
			// Servers.
			for i := 0; i < c.Servers; i++ {
				id := simnet.NodeID(fmt.Sprintf("srv-%s-%d", c.Name, i))
				px := proxy.New(net, id, place, obsIDs, nil)
				px.Obs = cfg.Obs
				cl := confclient.New(px)
				cl.SetObs(cfg.Obs)
				s := &Server{ID: id, Placement: place, Proxy: px, Client: cl}
				f.servers = append(f.servers, s)
				f.byID[id] = s
				f.byCluster[c.Name] = append(f.byCluster[c.Name], s)
			}
		}
	}
	return f
}

// AllServers returns every server.
func (f *Fleet) AllServers() []*Server { return f.servers }

// Cluster returns the servers in a cluster.
func (f *Fleet) Cluster(name string) []*Server { return f.byCluster[name] }

// ClusterNames lists cluster names, sorted.
func (f *Fleet) ClusterNames() []string {
	out := make([]string, 0, len(f.byCluster))
	for n := range f.byCluster {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Observers returns a cluster's observer ids.
func (f *Fleet) Observers(cluster string) []simnet.NodeID { return f.observers[cluster] }

// SubscribeAll makes every server's application subscribe to a config
// path: the proxies fetch it with watches, so updates push down the tree.
func (f *Fleet) SubscribeAll(path string) {
	f.watched[path] = true
	for _, s := range f.servers {
		s.Proxy.Want(path)
	}
}

// WatchedPaths lists the fleet-wide subscribed paths, sorted.
func (f *Fleet) WatchedPaths() []string {
	out := make([]string, 0, len(f.watched))
	for p := range f.watched {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// AttachMonitor stands up the fleet-health plane: a monitor node folding
// Zeus convergence watermarks against proxy heartbeats. Zero-value
// Ensemble/Obs fields inherit the fleet's; every existing proxy starts
// heartbeating at cfg.HeartbeatEvery. Call once, before driving traffic.
func (f *Fleet) AttachMonitor(cfg monitor.Config) *monitor.Monitor {
	if cfg.Ensemble == nil {
		cfg.Ensemble = f.Ensemble
	}
	if cfg.Obs == nil {
		cfg.Obs = f.Obs
	}
	m := monitor.New(cfg)
	// Place the monitor alongside the first region's consensus nodes; its
	// exact placement only changes heartbeat latency, not semantics.
	place := simnet.Placement{Region: "monitor", Cluster: "monitor"}
	if len(f.servers) > 0 {
		place = f.servers[0].Placement
	}
	m.Attach(f.Net, place)
	for _, s := range f.servers {
		s.Proxy.EnableMonitor(m.ID(), m.Config().HeartbeatEvery)
	}
	f.Monitor = m
	return m
}

// ---- canary.Deployment implementation ----

// Servers lists the fleet's server ids (stable order: creation order).
func (f *Fleet) Servers() []simnet.NodeID {
	out := make([]simnet.NodeID, len(f.servers))
	for i, s := range f.servers {
		out[i] = s.ID
	}
	return out
}

// ServersIn implements canary.ClusterTargeter: the servers of one cluster,
// enabling "test in a full cluster" phases.
func (f *Fleet) ServersIn(cluster string) []simnet.NodeID {
	servers := f.byCluster[cluster]
	out := make([]simnet.NodeID, len(servers))
	for i, s := range servers {
		out[i] = s.ID
	}
	return out
}

// DeployTemp temporarily deploys a config to the given servers' proxies.
func (f *Fleet) DeployTemp(servers []simnet.NodeID, path string, data []byte) {
	f.watched[path] = true
	for _, id := range servers {
		if s := f.byID[id]; s != nil {
			s.Proxy.SetOverride(path, data)
		}
	}
}

// Rollback clears temporary deployments.
func (f *Fleet) Rollback(servers []simnet.NodeID, path string) {
	for _, id := range servers {
		if s := f.byID[id]; s != nil {
			s.Proxy.ClearOverride(path)
		}
	}
}

// Sample implements health.Collector via the fleet's app model.
func (f *Fleet) Sample(server simnet.NodeID) health.Sample {
	s := f.byID[server]
	if s == nil {
		return health.Sample{}
	}
	return DefaultAppModel(f, s)
}
