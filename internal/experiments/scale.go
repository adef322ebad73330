package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"configerator/internal/gatekeeper"
	"configerator/internal/mobileconfig"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/stats"
	"configerator/internal/zeus"
)

// scaleOutcome is what the fleet-scale scenarios measured: the simnet core
// (timer wheel, pooled events, dense node table — DESIGN.md §14) carrying
// the paper's headline fleets. Two scenarios, each run twice with the same
// seed to prove determinism at scale:
//
//   - push: the §6.3 propagation curve — one config commit reaching 100k
//     proxies through the leader → observer → proxy tree (the paper:
//     "hundreds of thousands of servers in ~4.5 s").
//   - mobile: the §5 pull/push hybrid at 1M devices — staggered hourly-
//     style polls, an emergency mapping change pushed as an unreliable
//     "pull now" hint, stragglers healed by their next regular poll.
type scaleOutcome struct {
	Push   scalePush
	Mobile scaleMobile
}

// scaleRun is the common per-scenario accounting block.
type scaleRun struct {
	WallSeconds    float64
	Events         uint64
	EventsPerSec   float64
	AllocsPerEvent float64
	BytesOnWire    uint64
	Delivered      uint64
	Dropped        uint64
	// Deterministic is true when a second run with the same seed produced
	// identical Delivered/Dropped/BytesSent.
	Deterministic bool
}

// String renders the accounting line shared by both scenarios.
func (r scaleRun) String() string {
	return fmt.Sprintf("wall %.1fs, %.2fM events (%.2fM events/s), %.1f allocs/event, %.1f MB on wire, deterministic=%v",
		r.WallSeconds, float64(r.Events)/1e6, r.EventsPerSec/1e6,
		r.AllocsPerEvent, float64(r.BytesOnWire)/1e6, r.Deterministic)
}

// scalePush is the §6.3 propagation scenario.
type scalePush struct {
	Proxies      int
	Observers    int
	Regions      int
	Clusters     int
	PayloadBytes int

	ConvergedFrac float64
	P50Seconds    float64
	P99Seconds    float64
	MaxSeconds    float64

	Run scaleRun
}

// scaleMobile is the §5 pull/push hybrid scenario.
type scaleMobile struct {
	Devices          int
	Servers          int
	PollIntervalMin  float64
	PushReachFrac    float64
	ReachedIn60sFrac float64
	CatchupP99Sec    float64
	CaughtUpByPoll   bool
	NotModifiedFrac  float64

	Run scaleRun
}

// runMeter measures one scenario's event-processing phase: wall clock,
// events processed, and heap allocations per event (handlers included —
// the simnet core itself allocates zero per warm event).
type runMeter struct {
	start   time.Time
	mallocs uint64
	events  uint64
	net     *simnet.Network
}

func startMeter(net *simnet.Network) *runMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &runMeter{start: time.Now(), mallocs: ms.Mallocs, events: net.Events, net: net}
}

func (m *runMeter) stop() scaleRun {
	wall := time.Since(m.start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	events := m.net.Events - m.events
	run := scaleRun{
		WallSeconds: wall,
		Events:      events,
		BytesOnWire: m.net.BytesSent,
		Delivered:   m.net.Delivered,
		Dropped:     m.net.Dropped,
	}
	if wall > 0 {
		run.EventsPerSec = float64(events) / wall
	}
	if events > 0 {
		run.AllocsPerEvent = float64(ms.Mallocs-m.mallocs) / float64(events)
	}
	return run
}

// scalePushOnce runs the §6.3 scenario once and returns the filled block.
//
// Topology: a 3-member ensemble in one cluster, regions × clustersPerRegion
// clusters with 2 observers each, perCluster proxies per cluster. The
// paper's 4.5 s is the scheduling spread of a fan-out to hundreds of
// thousands of subscribers, which the simulator's raw hop latencies do not
// model; it is calibrated here as per-link latency spreads — observers
// receive the leader's batch 1–3 s after commit (global pacing) and each
// proxy's watch event is staggered 0.2–1.0 s behind its observer (cluster
// pacing) — yielding the S-curve that tops out near the paper's number.
func scalePushOnce(seed uint64, regions, clustersPerRegion, perCluster, payload int) (scalePush, scaleRun) {
	net := simnet.New(simnet.DefaultLatency(), seed)
	zkPlace := simnet.Placement{Region: "r0", Cluster: "zk"}
	ens := zeus.StartEnsemble(net, 3, []simnet.Placement{zkPlace})
	net.RunFor(12 * time.Second)

	nObs := 0
	obsByCluster := make(map[string][]simnet.NodeID)
	for r := 0; r < regions; r++ {
		for c := 0; c < clustersPerRegion; c++ {
			place := simnet.Placement{
				Region:  fmt.Sprintf("r%d", r),
				Cluster: fmt.Sprintf("c%d", c),
			}
			key := place.Region + "/" + place.Cluster
			for k := 0; k < 2; k++ {
				id := simnet.NodeID(fmt.Sprintf("obs-%d-%d-%d", r, c, k))
				ens.AddObserver(id, place)
				obsByCluster[key] = append(obsByCluster[key], id)
				for _, m := range ens.Members {
					extra := time.Second + time.Duration(nObs)*2*time.Second/time.Duration(2*regions*clustersPerRegion)
					net.SetLinkLatency(m, id, extra)
				}
				nObs++
			}
		}
	}
	net.RunFor(10 * time.Second)

	const path = "/scale/push/knob.json"
	writer := zeus.NewClient("writer", ens.Members)
	net.AddNode("writer", zkPlace, writer)
	body := strings.Repeat("x", payload-16)
	commit := func(rev int) {
		net.After(0, func() {
			ctx := simnet.MakeContext(net, "writer")
			writer.Write(&ctx, path, []byte(fmt.Sprintf(`{"rev":%06d,"p":"%s"}`, rev, body)), nil)
		})
	}
	commit(1)
	net.RunFor(10 * time.Second)

	proxies := make([]*proxy.Proxy, 0, regions*clustersPerRegion*perCluster)
	for r := 0; r < regions; r++ {
		for c := 0; c < clustersPerRegion; c++ {
			place := simnet.Placement{
				Region:  fmt.Sprintf("r%d", r),
				Cluster: fmt.Sprintf("c%d", c),
			}
			obs := obsByCluster[place.Region+"/"+place.Cluster]
			for k := 0; k < perCluster; k++ {
				id := simnet.NodeID(fmt.Sprintf("px-%d-%d-%05d", r, c, k))
				px := proxy.New(net, id, place, obs, nil)
				spread := 200*time.Millisecond + time.Duration(k)*800*time.Millisecond/time.Duration(perCluster)
				for _, o := range obs {
					net.SetLinkLatency(o, id, spread)
				}
				px.Want(path)
				proxies = append(proxies, px)
			}
		}
	}
	net.RunFor(15 * time.Second) // warm: every proxy fetches rev 1 with a watch

	base := make([]uint64, len(proxies))
	for i, px := range proxies {
		base[i] = px.WatchEvents
	}

	meter := startMeter(net)
	t0 := net.Now()
	commit(2)
	converged := make([]bool, len(proxies))
	left := len(proxies)
	cdf := stats.NewCDF()
	for tick := 0; tick < 1200 && left > 0; tick++ {
		net.RunFor(25 * time.Millisecond)
		since := net.Now().Sub(t0).Seconds()
		for i, px := range proxies {
			if !converged[i] && px.WatchEvents > base[i] {
				converged[i] = true
				cdf.Add(since)
				left--
			}
		}
	}
	run := meter.stop()

	p := scalePush{
		Proxies:       len(proxies),
		Observers:     nObs,
		Regions:       regions,
		Clusters:      regions * clustersPerRegion,
		PayloadBytes:  payload,
		ConvergedFrac: float64(len(proxies)-left) / float64(len(proxies)),
		P50Seconds:    cdf.Quantile(0.50),
		P99Seconds:    cdf.Quantile(0.99),
		MaxSeconds:    cdf.Max(),
	}
	return p, run
}

// scaleMobileOnce runs the §5 hybrid once. Devices poll their translation
// server every pollInterval with first polls staggered across the whole
// interval; at changeAt the mapping is updated fleet-wide and each server
// pushes a "pull now" hint to the ~90% of its devices the unreliable push
// channel reaches. The rest catch up at their next regular poll.
func scaleMobileOnce(seed uint64, devices, servers int) (scaleMobile, scaleRun) {
	const pollInterval = 20 * time.Minute
	net := simnet.New(simnet.DefaultLatency(), seed)
	rng := stats.NewRNG(seed * 7919)

	mapping := func(retries int) []byte {
		m := mobileconfig.Mapping{Config: "main", Fields: map[string]mobileconfig.FieldBinding{
			"FEATURE_X":   {Backend: mobileconfig.BackendConstant, Value: true},
			"MAX_RETRIES": {Backend: mobileconfig.BackendConstant, Value: retries},
			"UPLOAD_KBPS": {Backend: mobileconfig.BackendConstant, Value: 256},
		}}
		return m.Encode()
	}
	fields := []string{"FEATURE_X", "MAX_RETRIES", "UPLOAD_KBPS"}
	user := &gatekeeper.User{}
	users := func(id int64) *gatekeeper.User { user.ID = id; return user }

	srvs := make([]*mobileconfig.Server, servers)
	trs := make([]*mobileconfig.Translator, servers)
	var schemaHash uint64
	for s := 0; s < servers; s++ {
		tr := mobileconfig.NewTranslator(nil, nil)
		if err := tr.LoadMapping(mapping(3)); err != nil {
			panic(err)
		}
		trs[s] = tr
		schemaHash = tr.RegisterSchema(fields)
		place := simnet.Placement{
			Region:  fmt.Sprintf("mr%d", s%4),
			Cluster: fmt.Sprintf("mc%d", s/4),
		}
		srvs[s] = mobileconfig.NewServer(net, simnet.NodeID(fmt.Sprintf("tserv-%02d", s)), place, tr, users)
	}

	devs := make([]*mobileconfig.Device, devices)
	devIDs := make([][]simnet.NodeID, servers) // per server, in creation order
	for i := 0; i < devices; i++ {
		s := i % servers
		id := simnet.NodeID(fmt.Sprintf("dev-%07d", i))
		place := net.Placement(srvs[s].ID())
		first := time.Duration(rng.Intn(int(pollInterval)))
		d := mobileconfig.NewDeviceAt(net, id, place, srvs[s].ID(), "main", int64(i), schemaHash, first)
		d.SetPollInterval(pollInterval)
		devs[i] = d
		devIDs[s] = append(devIDs[s], id)
	}

	meter := startMeter(net)
	net.RunFor(pollInterval + time.Minute) // warm: every device pulls rev 1

	// Emergency change: remap MAX_RETRIES fleet-wide and push the hint.
	// (Mapping distribution itself rides configerator — §4's plane; here it
	// lands on every server at once.)
	for _, tr := range trs {
		if err := tr.LoadMapping(mapping(5)); err != nil {
			panic(err)
		}
	}
	pushAt := net.Now()
	pushed := 0
	for s, srv := range srvs {
		reach := make([]simnet.NodeID, 0, len(devIDs[s]))
		for _, id := range devIDs[s] {
			if rng.Float64() < 0.9 { // unreliable push channel
				reach = append(reach, id)
			}
		}
		ctx := simnet.MakeContext(net, srv.ID())
		srv.Push(&ctx, "main", reach)
		pushed += len(reach)
	}

	converged := make([]bool, devices)
	left := devices
	cdf := stats.NewCDF()
	reached60 := 0
	sample := func() {
		since := net.Now().Sub(pushAt).Seconds()
		for i, d := range devs {
			if !converged[i] && d.Updates >= 2 {
				converged[i] = true
				cdf.Add(since)
				left--
				if since <= 60 {
					reached60++
				}
			}
		}
	}
	for tick := 0; tick < 30 && left > 0; tick++ { // fine grid over the push minute
		net.RunFor(2 * time.Second)
		sample()
	}
	for tick := 0; tick < 80 && left > 0; tick++ { // coarse grid over the poll catch-up
		net.RunFor(20 * time.Second)
		sample()
	}
	run := meter.stop()

	var polls, notMod uint64
	for _, s := range srvs {
		polls += s.Polls
		notMod += s.NotModified
	}
	m := scaleMobile{
		Devices:          devices,
		Servers:          servers,
		PollIntervalMin:  pollInterval.Minutes(),
		PushReachFrac:    float64(pushed) / float64(devices),
		ReachedIn60sFrac: float64(reached60) / float64(devices),
		CatchupP99Sec:    cdf.Quantile(0.99),
		CaughtUpByPoll:   left == 0,
		NotModifiedFrac:  float64(notMod) / float64(polls),
	}
	return m, run
}

// scaleScenario runs both scenarios twice with the same seed.
func scaleScenario(opts Options) scaleOutcome {
	regions, clustersPerRegion, perCluster := 5, 4, 5000 // 100k proxies
	devices, servers := 1_000_000, 20
	if opts.Quick {
		perCluster = 200 // 4k proxies
		devices = 20_000
	}
	sameTotals := func(a, b scaleRun) bool {
		return a.Delivered == b.Delivered && a.Dropped == b.Dropped && a.BytesOnWire == b.BytesOnWire
	}
	var out scaleOutcome
	push, run := scalePushOnce(opts.Seed, regions, clustersPerRegion, perCluster, 2048)
	_, again := scalePushOnce(opts.Seed, regions, clustersPerRegion, perCluster, 2048)
	run.Deterministic = sameTotals(run, again)
	push.Run = run
	out.Push = push

	mob, mrun := scaleMobileOnce(opts.Seed, devices, servers)
	_, magain := scaleMobileOnce(opts.Seed, devices, servers)
	mrun.Deterministic = sameTotals(mrun, magain)
	mob.Run = mrun
	out.Mobile = mob
	return out
}

// Scale is the fleet-scale experiment: the 100k-proxy §6.3 curve and the
// 1M-device §5 hybrid.
func Scale(opts Options) Result {
	r := Result{ID: "scale", Title: "Fleet-scale simnet: 100k-proxy §6.3 push and 1M-device §5 hybrid"}
	o := scaleScenario(opts)
	push, mob := o.Push, o.Mobile

	var b strings.Builder
	fmt.Fprintf(&b, "push: %d proxies, %d observers, %d clusters — converged %.1f%%, p50 %.2fs p99 %.2fs max %.2fs\n",
		push.Proxies, push.Observers, push.Clusters, 100*push.ConvergedFrac,
		push.P50Seconds, push.P99Seconds, push.MaxSeconds)
	fmt.Fprintf(&b, "      %s\n", push.Run)
	fmt.Fprintf(&b, "mobile: %d devices / %d servers — push reached %.1f%%, %.1f%% updated in 60s, catch-up p99 %.0fs, all by next poll=%v, not-modified %.1f%%\n",
		mob.Devices, mob.Servers, 100*mob.PushReachFrac, 100*mob.ReachedIn60sFrac,
		mob.CatchupP99Sec, mob.CaughtUpByPoll, 100*mob.NotModifiedFrac)
	fmt.Fprintf(&b, "       %s\n", mob.Run)
	r.Text = b.String()

	r.metric("push_proxies", float64(push.Proxies), 0, false)
	r.metric("push_p99_s", push.P99Seconds, 4.5, true)
	r.metric("push_converged_frac", push.ConvergedFrac, 1.0, true)
	r.metric("push_events_per_sec", push.Run.EventsPerSec, 0, false)
	r.metric("mobile_devices", float64(mob.Devices), 0, false)
	r.metric("mobile_reached_60s_frac", mob.ReachedIn60sFrac, 0, false)
	r.metric("mobile_events_per_sec", mob.Run.EventsPerSec, 0, false)
	return r
}
