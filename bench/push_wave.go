package main

import (
	"bytes"
	"fmt"
	"time"

	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/stats"
	"configerator/internal/zeus"
)

// push_wave: the distribution plane's write side. Commits to a handful of
// configs that every proxy of a 12,000-proxy fleet watches: Zeus commits and
// delta-encodes, observers fan out, each proxy materialises the new version
// with a copy-on-write snapshot swap. The proxy written here is the one
// read_storm reads, so a read-side gain bought with write-side cost shows.
// It is the one open loop: a write is due every 200 simulated ms whether or
// not the previous one has propagated, and latency counts from when it was
// due. The schedule is in simulated time, so the generator is never late.

type pushSizes struct {
	members, regions, clustersPerRegion int
	observersPerCluster                 int
	proxiesPerCluster                   int
	paths, payloadBytes                 int
	commitsPerTenSecond                 int
	sampleEvery                         int // every n-th proxy reports latency
}

func pushSizesFor(cfg config) pushSizes {
	if cfg.tiny {
		return pushSizes{members: 3, regions: 2, clustersPerRegion: 2, observersPerCluster: 2,
			proxiesPerCluster: 10, paths: 4, payloadBytes: 512, commitsPerTenSecond: 20, sampleEvery: 4}
	}
	return pushSizes{members: 5, regions: 4, clustersPerRegion: 5, observersPerCluster: 2,
		proxiesPerCluster: 600, paths: 8, payloadBytes: 2048, commitsPerTenSecond: 60, sampleEvery: 60}
}

const pushInterval = 200 * time.Millisecond

// pushRig is a warm fleet.
type pushRig struct {
	sz      pushSizes
	net     *simnet.Network
	writer  *zeus.Client
	proxies []*proxy.Proxy
	paths   []string
	rng     *stats.RNG
	// current[p] is the body last committed to path p; due[p] is when that
	// commit was due.
	current [][]byte
	due     []time.Time
	rev     int
	acked   int
	ackS    []float64
	simS    []float64
}

// body makes a payload of seeded text: a header line carrying the revision,
// then lines that a whole-body rewrite replaces and a small edit keeps. Zeus
// deltas are a splice over the shared prefix and suffix, so a rewrite also
// flips the tag that is the body's first byte and ends its last line: with
// nothing shared at either end the encoder must ship a full snapshot.
func (r *pushRig) body(rewrite bool, p int) []byte {
	old := r.current[p]
	tag := byte('a')
	if old != nil {
		tag = old[0]
	}
	if rewrite && tag == 'a' {
		tag = 'b'
	} else if rewrite {
		tag = 'a'
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%c rev = %08d\n", tag, r.rev)
	if !rewrite {
		b.Write(old[bytes.IndexByte(old, '\n')+1:])
		return b.Bytes()
	}
	for b.Len() < r.sz.payloadBytes {
		fmt.Fprintf(&b, "tier.%016x = %016x\n", r.rng.Uint64(), r.rng.Uint64())
	}
	fmt.Fprintf(&b, "end %c\n", tag)
	return b.Bytes()
}

// commit issues the next write to path p at the current simulated instant.
func (r *pushRig) commit(p int, rewrite bool) {
	r.rev++
	r.current[p] = r.body(rewrite, p)
	r.due[p] = r.net.Now()
	data, due := r.current[p], r.due[p]
	r.net.After(0, func() {
		ctx := simnet.MakeContext(r.net, "writer")
		r.writer.Write(&ctx, r.paths[p], data, func(zeus.WriteResult) {
			r.acked++
			r.ackS = append(r.ackS, r.net.Now().Sub(due).Seconds())
		})
	})
}

// newPushRig builds the fleet and warms every proxy's watch on every path.
// all instruments every proxy; sampled instruments the ensemble and the
// latency-reporting proxies (both nil in the untraced run).
func newPushRig(cfg config, all, sampled *obs.Registry) *pushRig {
	sz := pushSizesFor(cfg)
	r := &pushRig{sz: sz, net: simnet.New(simnet.DefaultLatency(), cfg.seed), rng: stats.NewRNG(cfg.seed),
		current: make([][]byte, sz.paths), due: make([]time.Time, sz.paths)}
	var zk []simnet.Placement
	for reg := 0; reg < sz.regions; reg++ {
		zk = append(zk, simnet.Placement{Region: fmt.Sprintf("r%d", reg), Cluster: "zk"})
	}
	ens := zeus.StartEnsemble(r.net, sz.members, zk)
	ens.SetObs(sampled)
	r.writer = zeus.NewClient("writer", ens.Members)
	r.net.AddNode("writer", zk[0], r.writer)
	r.net.RunFor(10 * time.Second) // elect the leader
	for p := 0; p < sz.paths; p++ {
		r.paths = append(r.paths, fmt.Sprintf("/push/cfg-%d.conf", p))
		r.commit(p, true)
	}
	r.net.RunFor(5 * time.Second)
	for reg := 0; reg < sz.regions; reg++ {
		for c := 0; c < sz.clustersPerRegion; c++ {
			place := simnet.Placement{Region: fmt.Sprintf("r%d", reg), Cluster: fmt.Sprintf("c%d", c)}
			var observers []simnet.NodeID
			for k := 0; k < sz.observersPerCluster; k++ {
				id := simnet.NodeID(fmt.Sprintf("obs-%d-%d-%d", reg, c, k))
				ens.AddObserver(id, place)
				observers = append(observers, id)
			}
			for k := 0; k < sz.proxiesPerCluster; k++ {
				px := proxy.New(r.net, simnet.NodeID(fmt.Sprintf("px-%d-%d-%04d", reg, c, k)), place, observers, nil)
				px.Obs = all
				if len(r.proxies)%sz.sampleEvery == 0 {
					px.Obs = sampled
					for p := range r.paths {
						p := p
						px.Subscribe(r.paths[p], func(proxy.Entry) {
							r.simS = append(r.simS, r.net.Now().Sub(r.due[p]).Seconds())
						})
					}
				}
				for _, path := range r.paths {
					px.Want(path)
				}
				r.proxies = append(r.proxies, px)
			}
		}
	}
	r.net.RunFor(15 * time.Second) // every proxy fetches every path with a watch
	r.simS, r.ackS, r.acked = r.simS[:0], r.ackS[:0], 0
	return r
}

func (r *pushRig) watchEvents() (n uint64) {
	for _, px := range r.proxies {
		n += px.WatchEvents
	}
	return n
}

// run issues the schedule: in every block of five commits four are small
// edits (the delta path) and one, at a seeded position among the first four,
// rewrites the whole body (the full-snapshot path). An op is one proxy materialising one new
// version.
func (r *pushRig) run(cfg config, tr *tracer) (o outcome, simAllocs uint64) {
	commits := cfg.ops(r.sz.commitsPerTenSecond)
	base := r.watchEvents()
	done := base
	var blockWall time.Duration
	var blockOps uint64
	blockFrom := 0
	tick := func(i int, d time.Duration) {
		before := heapObjects()
		t0 := time.Now()
		tr.in("simnet.RunFor", i, func() { r.net.RunFor(d) })
		wall := time.Since(t0)
		simAllocs += heapObjects() - before
		blockWall += wall
		if now := r.watchEvents(); now > done {
			o.opMs = append(o.opMs, float64(wall)/1e6/float64(now-done))
			o.opWeight = append(o.opWeight, float64(now-done))
			blockOps += now - done
			done = now
		}
	}
	start := time.Now()
	rewriteAt := 0
	for i := 0; i < commits; i++ {
		if i%5 == 0 {
			rewriteAt = r.rng.Intn(4)
		}
		r.commit(i%len(r.paths), i%5 == rewriteAt)
		tick(i, pushInterval)
		// Five ticks are one equal-work block: four deltas and a snapshot
		// fanned out to every proxy (each wave lands a tick after its commit,
		// so a block holds the previous block's last wave and not its own).
		if i%5 == 4 {
			if i > 4 {
				o.blocks = append(o.blocks, block{
					opsPerS: float64(blockOps) / blockWall.Seconds(),
					opMs:    o.opMs[blockFrom:], opWeight: o.opWeight[blockFrom:],
				})
			}
			blockWall, blockOps, blockFrom = 0, 0, len(o.opMs)
		}
	}
	tick(commits, 2*time.Second) // let the last waves land
	o.wall = time.Since(start)
	o.simS = r.simS

	want := uint64(commits * len(r.proxies))
	o.ops = int(done - base)
	if uint64(o.ops) < want {
		o.failed = int(want) - o.ops
	}
	switch {
	case r.acked != commits:
		o.checkErr = fmt.Errorf("%d of %d writes acked", r.acked, commits)
	case o.failed > 0:
		o.checkErr = fmt.Errorf("%d of %d materialisations missing", o.failed, want)
	default:
		o.checkErr = r.check()
	}
	o.fingerprint = fmt.Sprintf("events=%d sim=%s", r.net.Events, digest(o.simS))
	return o, simAllocs
}

// check reads every path on every proxy: each must serve the last committed
// bytes.
func (r *pushRig) check() error {
	for _, px := range r.proxies {
		for p, path := range r.paths {
			if res := px.Read(path); !res.OK || !bytes.Equal(res.Data, r.current[p]) {
				return fmt.Errorf("%s serves a stale or missing %s", px.ID(), path)
			}
		}
	}
	return nil
}

func pushWave(cfg config) outcome {
	rig, setupS := repeatSetup(func() *pushRig { return newPushRig(cfg, nil, nil) })
	o, _ := rig.run(cfg, nil)
	o.setupS = setupS
	return o
}

// pushWaveTraced attaches two registries: one to every proxy, counting only;
// one to the ensemble and the sampled proxies with a trace bound to every
// path, so the per-hop histograms fill without 720 k hop spans distorting the
// simulator's time.
func pushWaveTraced(cfg config, tr *tracer) outcome {
	all, sampled := obs.New(), obs.New()
	rig := newPushRig(cfg, all, sampled)
	for _, path := range rig.paths {
		sampled.BindPath(path, sampled.StartTrace("push "+path, rig.net.Now()))
	}
	fetches := func() (n uint64) {
		for _, px := range rig.proxies {
			n += px.Fetches
		}
		return n
	}
	fetches0 := fetches()
	counts0 := sampled.Counters().Snapshot()
	fallbacks0 := all.Counters().Get("proxy.delta.fallback") + counts0["proxy.delta.fallback"]
	events0, bytes0 := rig.net.Events, rig.net.BytesSent

	root := tr.begin("bench.push_wave", 0)
	o, simAllocs := rig.run(cfg, tr)
	tr.end(root)
	o.rootSpan = "bench.push_wave"

	counts := delta(sampled.Counters().Snapshot(), counts0)
	events := float64(rig.net.Events - events0)
	run := tr.byName()["simnet.RunFor"]
	ops := float64(o.ops)
	o.perLayer = map[string]float64{
		"simnet.run_ms":                       float64(run.self) / 1e6 / ops,
		"simnet.events":                       events,
		"simnet.events_per_s":                 events / run.total.Seconds(),
		"simnet.allocs_per_event":             float64(simAllocs) / events,
		"simnet.wire_bytes":                   float64(rig.net.BytesSent - bytes0),
		"zeus.write_ack_sim_ms_p50":           1e3 * quantile(rig.ackS, 0.5),
		"zeus.propose_ops_per_wave":           ratio(counts["zeus.propose.ops"], counts["zeus.propose.waves"]),
		"zeus.push_delta_frac":                ratio(counts["zeus.push.delta"], counts["zeus.push.delta"]+counts["zeus.push.full"]),
		"zeus.push_bytes_per_delivery":        ratio(counts["zeus.push.bytes"], counts["zeus.push.delta"]+counts["zeus.push.full"]),
		"zeus.hop_leader_observer_sim_ms_p50": 1e3 * sampled.Histogram(obs.HistHopLeaderObserver).Quantile(0.5).Seconds(),
		"proxy.watch_events":                  ops,
		"proxy.fetches":                       float64(fetches() - fetches0),
		"proxy.delta_fallbacks":               float64(all.Counters().Get("proxy.delta.fallback") + sampled.Counters().Get("proxy.delta.fallback") - fallbacks0),
		"proxy.hop_observer_proxy_sim_ms_p50": 1e3 * sampled.Histogram(obs.HistHopObserverProxy).Quantile(0.5).Seconds(),
		"bench.traced_ops_per_s":              o.opsPerS(),
	}
	return o
}
