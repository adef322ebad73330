package main

import (
	"fmt"
	"time"

	"configerator/internal/packagevessel"
	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
)

// vessel_swarm: bulk delivery. Synthetic packages are published and
// announced to every agent, which swarm the chunks from the registry and each
// other under the tracker's rarest-first grants. Each package is delivered
// as version 1, then as two successor versions that each rewrite an eighth of
// the chunks, so only the new chunks move (the dedup path). packagevessel,
// its blob store and simnet do the work; there is no Zeus and no proxy. A
// delivery completes when its slowest agent does. It is a closed loop: a
// version is announced when the one before has reached everyone.
//
// Several packages, not one large one: a swarm's endgame is chaotic, and the
// slowest agents of a single delivery move sim_latency_s_p99 by a sixth from
// seed to seed. With two delta versions per full one the median sample is a
// delta delivery and the 99th percentile a full one.

type vesselSizes struct {
	agents, clusters      int
	packages              int
	chunkBytes            int
	chunksPerTenSecond    int // chunks per package
	changedFrac           float64
	bytesPerSecond        float64
	verifyKB, verifyLoops int // traced: real buffers through Store.PutVerified
}

func vesselSizesFor(cfg config) vesselSizes {
	if cfg.tiny {
		return vesselSizes{agents: 40, clusters: 4, packages: 2, chunkBytes: 1 << 20, chunksPerTenSecond: 8,
			changedFrac: 0.125, bytesPerSecond: 1.25e8, verifyKB: 8, verifyLoops: 200}
	}
	return vesselSizes{agents: 2000, clusters: 8, packages: 8, chunkBytes: 8 << 20, chunksPerTenSecond: 16,
		changedFrac: 0.125, bytesPerSecond: 1.25e8, verifyKB: 8, verifyLoops: 50_000}
}

// vesselVersions per package: one full delivery and two deltas.
const vesselVersions = 3

// vesselRig is an idle swarm.
type vesselRig struct {
	sz       vesselSizes
	net      *simnet.Network
	registry *packagevessel.Registry
	tracker  *packagevessel.Tracker
	agents   []*packagevessel.Agent
	// Completions of the version being delivered.
	took  []float64
	wire  int64
	tr    *tracer
	ticks int
	// simAllocs counts heap objects allocated inside simnet.RunFor.
	simAllocs uint64
}

func newVesselRig(cfg config) *vesselRig {
	sz := vesselSizesFor(cfg)
	r := &vesselRig{sz: sz, net: simnet.New(simnet.DefaultLatency(), cfg.seed)}
	store := simnet.Placement{Region: "us", Cluster: "store"}
	r.registry = packagevessel.NewRegistry(r.net, "registry", store, "tracker")
	r.net.SetBandwidth("registry", sz.bytesPerSecond, sz.bytesPerSecond)
	r.tracker = packagevessel.NewTracker(r.net, "tracker", store)
	r.tracker.SetHolderBudget(packagevessel.HolderBudgetFor(sz.bytesPerSecond, sz.chunkBytes))
	for i := 0; i < sz.agents; i++ {
		region := "us"
		if i%sz.clusters >= sz.clusters/2 {
			region = "eu"
		}
		id := simnet.NodeID(fmt.Sprintf("srv-%d", i))
		a := packagevessel.NewAgent(r.net, id,
			simnet.Placement{Region: region, Cluster: fmt.Sprintf("c%d", i%sz.clusters)}, packagevessel.Options{})
		r.net.SetBandwidth(id, sz.bytesPerSecond, sz.bytesPerSecond)
		a.OnComplete(func(_ blob.Manifest, d time.Duration, st packagevessel.TransferStats) {
			r.took = append(r.took, d.Seconds())
			r.wire += st.BytesFetched
		})
		r.agents = append(r.agents, a)
	}
	r.net.RunFor(time.Second)
	return r
}

func (r *vesselRig) fetched() (n uint64) {
	for _, a := range r.agents {
		n += a.ChunksFetched
	}
	return n
}

// vesselStep is the simulated time per RunFor call: each call with chunks
// verified in it gives one op_wall_ms sample.
const vesselStep = 250 * time.Millisecond

// deliver announces m to every agent and runs the simulator in steps until
// all have completed (at most an hour of simulated time). An op is one chunk fetched and verified by
// one agent.
func (r *vesselRig) deliver(o *outcome, m blob.Manifest) (wire int64, err error) {
	meta := packagevessel.MetadataFor(m, r.registry.ID(), r.tracker.ID())
	r.took, r.wire = r.took[:0], 0
	for _, a := range r.agents {
		a.OnAnnounce(meta)
	}
	done := r.fetched()
	for step := 0; step < int(time.Hour/vesselStep) && len(r.took) < len(r.agents); step++ {
		before := heapObjects()
		t0 := time.Now()
		r.tr.in("simnet.RunFor", r.ticks, func() { r.net.RunFor(vesselStep) })
		wall := time.Since(t0)
		r.simAllocs += heapObjects() - before
		r.ticks++
		if now := r.fetched(); now > done {
			o.opMs = append(o.opMs, float64(wall)/1e6/float64(now-done))
			o.opWeight = append(o.opWeight, float64(now-done))
			o.ops += int(now - done)
			done = now
		}
	}
	if len(r.took) < len(r.agents) {
		return r.wire, fmt.Errorf("%s reached %d of %d agents", m.Key(), len(r.took), len(r.agents))
	}
	o.simS = append(o.simS, r.took...)
	return r.wire, nil
}

// vesselResult carries what the traced run reports beyond the outcome.
type vesselResult struct {
	delta               packagevessel.PublishStats // summed over the delta versions
	wireFull, wireDelta int64
}

// run publishes and delivers every version of every package in turn.
func (r *vesselRig) run(cfg config) (o outcome, res vesselResult) {
	chunks := cfg.ops(r.sz.chunksPerTenSecond)
	start := time.Now()
deliveries:
	for p := 0; p < r.sz.packages; p++ {
		name := fmt.Sprintf("model-%d", p)
		blockStart, blockFrom, blockOps := time.Now(), len(o.opMs), o.ops
		pkg := packagevessel.SyntheticPackage(name, 1, chunks*r.sz.chunkBytes, r.sz.chunkBytes, cfg.seed)
		var wireFull int64
		for version := int64(1); version <= vesselVersions; version++ {
			if version > 1 {
				pkg = packagevessel.NextVersion(pkg, version, r.sz.changedFrac, cfg.seed)
			}
			id := r.tr.begin("packagevessel.Publish", r.ticks)
			m, err := r.registry.Publish(pkg)
			r.tr.end(id)
			var wire int64
			if err == nil {
				wire, err = r.deliver(&o, m)
			}
			switch {
			case err != nil:
				o.checkErr = err
			case version == 1:
				wireFull = wire
				res.wireFull += wire
			case 4*wire >= wireFull:
				o.checkErr = fmt.Errorf("%s moved %d bytes, version 1 %d: dedup saved too little", m.Key(), wire, wireFull)
			default:
				st := r.registry.LastPublish()
				res.delta.NewChunks += st.NewChunks
				res.delta.DedupChunks += st.DedupChunks
				res.wireDelta += wire
			}
			if o.checkErr != nil {
				o.failed++
				break deliveries
			}
		}
		// Every package is the same size and is published and delivered the
		// same way, so each is one equal-work block.
		o.blocks = append(o.blocks, block{
			opsPerS: float64(o.ops-blockOps) / time.Since(blockStart).Seconds(),
			opMs:    o.opMs[blockFrom:], opWeight: o.opWeight[blockFrom:],
		})
	}
	o.wall = time.Since(start)
	if o.checkErr == nil {
		o.checkErr = r.check()
	}
	o.fingerprint = fmt.Sprintf("events=%d took=%s", r.net.Events, digest(o.simS))
	return o, res
}

// check: every agent holds every version of every package complete. (That
// each delta version moved under a quarter of its full version's bytes was
// checked as it was delivered.)
func (r *vesselRig) check() error {
	for i, a := range r.agents {
		for p := 0; p < r.sz.packages; p++ {
			for version := int64(1); version <= vesselVersions; version++ {
				if !a.Complete(fmt.Sprintf("model-%d", p), version) {
					return fmt.Errorf("agent %d is missing model-%d@%d", i, p, version)
				}
			}
		}
	}
	return nil
}

func vesselSwarm(cfg config) outcome {
	rig, setupS := repeatSetup(func() *vesselRig { return newVesselRig(cfg) })
	o, _ := rig.run(cfg)
	o.setupS = setupS
	return o
}

func vesselSwarmTraced(cfg config, tr *tracer) outcome {
	rig := newVesselRig(cfg)
	rig.tr = tr
	events0, bytes0 := rig.net.Events, rig.net.BytesSent
	root := tr.begin("bench.vessel_swarm", 0)
	o, res := rig.run(cfg)
	tr.end(root)
	o.rootSpan = "bench.vessel_swarm"

	var same, total, origin, fetched uint64
	for _, a := range rig.agents {
		same += a.ChunksSameCluster
		total += a.ChunksSameCluster + a.ChunksSameRegion + a.ChunksCrossRegion
		origin += a.ChunksFromOrigin
		fetched += a.ChunksFetched
	}

	// The digest check on real bytes: synthetic chunks carry a few bytes of
	// content, so the swarm above cannot show what verification costs per
	// kilobyte. This loop can, and it is where a digest change lands.
	buf := make([]byte, rig.sz.verifyKB<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	store := blob.NewStore()
	want := blob.DigestOf(buf)
	id := tr.begin("blob.PutVerified", 0)
	t0 := time.Now()
	for i := 0; i < rig.sz.verifyLoops; i++ {
		if _, err := store.PutVerified(buf, len(buf), want); err != nil && o.checkErr == nil {
			o.checkErr = err
		}
	}
	verify := time.Since(t0)
	tr.end(id)

	events := float64(rig.net.Events - events0)
	by := tr.byName()
	run, publish := by["simnet.RunFor"], by["packagevessel.Publish"]
	ops := float64(o.ops)
	o.perLayer = map[string]float64{
		"simnet.run_ms":                   float64(run.self) / 1e6 / ops,
		"simnet.events":                   events,
		"simnet.events_per_s":             events / run.total.Seconds(),
		"simnet.allocs_per_event":         float64(rig.simAllocs) / events,
		"simnet.wire_bytes":               float64(rig.net.BytesSent - bytes0),
		"packagevessel.publish_ms":        float64(publish.total) / 1e6 / float64(publish.calls),
		"packagevessel.new_chunks":        float64(res.delta.NewChunks),
		"packagevessel.dedup_chunks":      float64(res.delta.DedupChunks),
		"packagevessel.same_cluster_frac": float64(same) / float64(total),
		"packagevessel.registry_share":    float64(origin) / float64(total),
		"packagevessel.grant_waste_frac":  1 - float64(fetched)/float64(rig.tracker.Assignments),
		"packagevessel.v2_wire_frac":      float64(res.wireDelta) / float64(res.wireFull) / (vesselVersions - 1),
		"blob.verify_ns_per_kb":           float64(verify) / float64(rig.sz.verifyLoops) / float64(rig.sz.verifyKB),
		"bench.traced_ops_per_s":          o.opsPerS(),
	}
	return o
}
