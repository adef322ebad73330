package experiments

import (
	"fmt"
	"strings"
	"time"

	"configerator/internal/packagevessel"
	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
)

// vesselOutcome is the content-addressed PackageVessel measured against
// the three claims the redesign is accountable for — §5's fleet-wide
// <4 min delivery at 10k agents, cross-version dedup cutting a delta
// publish to a fraction of the full package's bytes, and crash-resume
// that never re-fetches a chunk the journal already verified. Every
// number is a deterministic function of the seed; Fingerprints holds each
// scenario class's state fingerprint from two same-seed runs, and
// Identical says the pairs match.
type vesselOutcome struct {
	Fleet        fleetOutcome
	Delta        deltaOutcome
	Resume       resumeOutcome
	Fingerprints []string
	Identical    bool
}

// fingerprint folds a stream of integers into a content hash, giving each
// scenario a single comparable digest of its observable outcome
// (completion times, chunk accounting, registry load).
type fingerprint struct{ buf []byte }

func (f *fingerprint) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			f.buf = append(f.buf, byte(v>>(8*i)))
		}
	}
}

func (f *fingerprint) String() string {
	return fmt.Sprintf("%016x", vcs.HashBytes(f.buf))
}

// publish registers pkg with the swarm's registry. The scenarios publish only
// well-formed packages, so an error is a bug.
func publish(s *packagevessel.Swarm, pkg packagevessel.Package) blob.Manifest {
	m, err := s.Registry.Publish(pkg)
	if err != nil {
		panic(err)
	}
	return m
}

// fleetOutcome is one fleet-wide delivery: completion times in the order
// the agents completed, where the chunks came from, and the run's
// fingerprint.
type fleetOutcome struct {
	agents, sizeMB, chunkMB int
	took                    []time.Duration
	sameCluster             float64
	regShare                float64
	grantWaste              float64
	fp                      string
}

// quantile is the completion time of the p-quantile agent.
func (o fleetOutcome) quantile(p float64) time.Duration {
	return o.took[int(p*float64(len(o.took)-1))]
}

// runFleetDelivery measures one fleet-wide package delivery coordinated by
// tracker ("" for none: every chunk comes from the registry).
func runFleetDelivery(seed uint64, agents, clusters, sizeMB, chunkMB int, tracker simnet.NodeID) fleetOutcome {
	s := packagevessel.NewSwarm(seed, agents, clusters)
	s.Tracker.SetHolderBudget(packagevessel.HolderBudgetFor(packagevessel.SwarmBps, chunkMB<<20))
	m := publish(s, packagevessel.SyntheticPackage("model", 1, sizeMB<<20, chunkMB<<20, seed))
	done := s.Deliver(m, tracker, time.Hour)
	if len(done) != agents {
		panic(fmt.Sprintf("vessel: fleet incomplete: %d of %d", len(done), agents))
	}
	out := fleetOutcome{agents: agents, sizeMB: sizeMB, chunkMB: chunkMB}
	var fp fingerprint
	var same, total, fromOrigin, fetched uint64
	for _, a := range s.Agents {
		same += a.ChunksSameCluster
		total += a.ChunksSameCluster + a.ChunksSameRegion + a.ChunksCrossRegion
		fromOrigin += a.ChunksFromOrigin
		fetched += a.ChunksFetched
		fp.add(a.ChunksFetched, a.ChunksSameCluster, a.ChunksServed)
	}
	for _, d := range done {
		out.took = append(out.took, d.Took)
		fp.add(uint64(d.Took))
	}
	fp.add(s.Registry.ChunksServed, s.Tracker.Assignments)
	out.sameCluster = float64(same) / float64(total)
	out.regShare = float64(fromOrigin) / float64(total)
	if s.Tracker.Assignments > 0 {
		out.grantWaste = 1 - float64(fetched)/float64(s.Tracker.Assignments)
	}
	out.fp = fp.String()
	return out
}

// deltaOutcome is one v1→v2 delta publish: what the registry stored and
// what share of the full package's bytes the fleet moved for v2.
type deltaOutcome struct {
	fullChunks             int // 1 MiB chunks
	changedFrac            float64
	newChunks, dedupChunks int
	wireFrac               float64
	fp                     string
}

// runDeltaPublish delivers v1 fleet-wide, publishes a changedFrac delta
// as v2, and measures the wire bytes the fleet spends on v2 relative to
// the full package size.
func runDeltaPublish(seed uint64, agents, sizeMB int, changedFrac float64) deltaOutcome {
	const chunkSize = packagevessel.DefaultChunkSize
	s := packagevessel.NewSwarm(seed, agents, 4)
	s.Tracker.SetHolderBudget(packagevessel.HolderBudgetFor(packagevessel.SwarmBps, chunkSize))
	v1 := packagevessel.SyntheticPackage("model", 1, sizeMB<<20, chunkSize, seed)
	if n := len(s.Deliver(publish(s, v1), s.Tracker.ID(), time.Hour)); n != agents {
		panic(fmt.Sprintf("vessel: v1 incomplete: %d of %d", n, agents))
	}
	done := s.Deliver(publish(s, packagevessel.NextVersion(v1, 2, changedFrac, seed)), s.Tracker.ID(), time.Hour)
	if len(done) != agents {
		panic(fmt.Sprintf("vessel: v2 incomplete: %d of %d", len(done), agents))
	}
	var wire int64
	var fp fingerprint
	for _, d := range done {
		wire += d.Stats.BytesFetched
		fp.add(uint64(d.Stats.ChunksFetched), uint64(d.Stats.ChunksDeduped), uint64(d.Stats.BytesFetched))
	}
	st := s.Registry.LastPublish()
	fp.add(uint64(st.NewChunks), uint64(st.DedupChunks), s.Registry.ChunksServed)
	return deltaOutcome{
		fullChunks:  sizeMB,
		changedFrac: changedFrac,
		newChunks:   st.NewChunks,
		dedupChunks: st.DedupChunks,
		// Per-agent average v2 wire bytes over the full package size.
		wireFrac: float64(wire) / float64(agents) / float64(int64(sizeMB)<<20),
		fp:       fp.String(),
	}
}

// resumeOutcome is one crash-and-restart: chunk accounting across the
// victim's two lives.
type resumeOutcome struct {
	chunksTotal, verified, refetched, lifetime int
	completed, noRefetch                       bool
	fp                                         string
}

// runResume crashes one agent mid-download, restarts it, and accounts
// exactly which chunks crossed the wire across its two lives.
func runResume(seed uint64, agents, sizeMB int) resumeOutcome {
	const chunkSize = packagevessel.DefaultChunkSize
	s := packagevessel.NewSwarm(seed, agents, 2)
	s.Tracker.SetHolderBudget(packagevessel.HolderBudgetFor(packagevessel.SwarmBps, chunkSize))
	// Slow links stretch the transfer so the crash lands mid-download.
	for i := 0; i < agents; i++ {
		s.Net.SetBandwidth(simnet.NodeID(fmt.Sprintf("srv-%d", i)), 1.25e7, 1.25e7)
	}
	victim := s.Agents[0]
	m := publish(s, packagevessel.SyntheticPackage("model", 1, sizeMB<<20, chunkSize, seed))
	plan := simnet.NewFaultPlan(
		simnet.WithCrash(2*time.Second, "srv-0"),
		simnet.WithRestart(20*time.Second, "srv-0"),
	)
	plan.Apply(s.Net)
	var final packagevessel.TransferStats
	for _, d := range s.Deliver(m, s.Tracker.ID(), 10*time.Minute) {
		if d.Agent == victim {
			final = d.Stats
		}
	}

	total := len(m.Distinct())
	out := resumeOutcome{
		chunksTotal: total,
		verified:    final.ResumeVerified,
		refetched:   final.ChunksFetched,
		lifetime:    int(victim.ChunksFetched),
		completed:   victim.Complete("model", 1),
	}
	// Chunks fetched across both lives must equal the manifest exactly:
	// nothing verified on disk at restart went over the wire twice.
	out.noRefetch = final.Resumed &&
		final.ResumeVerified > 0 &&
		final.ChunksFetched == total-final.ResumeVerified &&
		out.lifetime == total
	var fp fingerprint
	fp.add(uint64(final.ResumeVerified), uint64(final.ChunksFetched),
		victim.ChunksFetched, victim.ResumeVerified, s.Registry.ChunksServed)
	out.fp = fp.String()
	return out
}

// vesselScenario runs the three scenarios and the same-seed re-runs:
// (a) a 10k-agent fleet receives a multi-GB package in under the four
// minutes §5 claims, (b) publishing a small-delta v2 moves under 25% of
// the full package's bytes thanks to digest-keyed dedup, and (c) a
// crashed-and-restarted agent completes without re-fetching any chunk its
// resume journal already verified.
func vesselScenario(opts Options) vesselOutcome {
	fleetAgents, fleetClusters, fleetMB, fleetChunkMB := 10_000, 40, 2048, 16
	deltaAgents, deltaMB := 48, 192
	resumeAgents, resumeMB := 12, 64
	miniAgents, miniMB, miniChunkMB := 400, 128, 4
	if opts.Quick {
		fleetAgents, fleetClusters, fleetMB, fleetChunkMB = 800, 16, 256, 8
		deltaAgents, deltaMB = 24, 64
		miniAgents, miniMB = 120, 64
	}

	// (a) Fleet-scale delivery against the four-minute claim; (b) a delta
	// publish where 12.5% of chunks change between v1 and v2; (c) a crash
	// mid-download, restart, finish from the journal.
	const changedFrac = 0.125
	fleet := runFleetDelivery(opts.Seed, fleetAgents, fleetClusters, fleetMB, fleetChunkMB, "tracker")
	delta := runDeltaPublish(opts.Seed, deltaAgents, deltaMB, changedFrac)
	res := runResume(opts.Seed, resumeAgents, resumeMB)

	// Determinism: each scenario class re-run with the same seed must
	// reproduce its fingerprint bit-for-bit (the fleet run is represented
	// by a smaller configuration so the check stays affordable).
	mini1 := runFleetDelivery(opts.Seed, miniAgents, 8, miniMB, miniChunkMB, "tracker")
	mini2 := runFleetDelivery(opts.Seed, miniAgents, 8, miniMB, miniChunkMB, "tracker")
	delta2 := runDeltaPublish(opts.Seed, deltaAgents, deltaMB, changedFrac)
	res2 := runResume(opts.Seed, resumeAgents, resumeMB)
	return vesselOutcome{
		Fleet:        fleet,
		Delta:        delta,
		Resume:       res,
		Fingerprints: []string{mini1.fp, mini2.fp, delta.fp, delta2.fp, res.fp, res2.fp},
		Identical:    mini1.fp == mini2.fp && delta.fp == delta2.fp && res.fp == res2.fp,
	}
}

// Vessel reports the content-addressed PackageVessel against the
// redesign's three acceptance claims: fleet delivery, delta publish,
// crash resume — plus same-seed determinism of all three.
func Vessel(opts Options) Result {
	r := Result{ID: "vessel", Title: "Content-addressed PackageVessel: 10k-agent delivery, delta publish, crash resume"}
	o := vesselScenario(opts)
	fleet, delta, res := o.Fleet, o.Delta, o.Resume
	fleetMax := fleet.quantile(1).Seconds()

	var b strings.Builder
	fmt.Fprintf(&b, "fleet delivery: %d agents, %d MB package (%d MB chunks): p50 %.1fs p99 %.1fs max %.1fs (four-minute bound: %v)\n",
		fleet.agents, fleet.sizeMB, fleet.chunkMB,
		fleet.quantile(0.50).Seconds(), fleet.quantile(0.99).Seconds(), fleetMax, fleetMax < 240)
	fmt.Fprintf(&b, "  locality: %.0f%% same-cluster; registry served %.1f%% of chunks; grant waste %.1f%%\n",
		100*fleet.sameCluster, 100*fleet.regShare, 100*fleet.grantWaste)
	fmt.Fprintf(&b, "delta publish: v2 changed %.1f%% of %d chunks -> registry stored %d new / %d dedup; fleet moved %.1f%% of full-package bytes (<25%%: %v)\n",
		100*delta.changedFrac, delta.fullChunks, delta.newChunks, delta.dedupChunks, 100*delta.wireFrac, delta.wireFrac < 0.25)
	fmt.Fprintf(&b, "resume: crash mid-download, restart: %d/%d chunks verified on disk, %d re-fetched, lifetime fetches %d (no re-fetch of verified: %v)\n",
		res.verified, res.chunksTotal, res.refetched, res.lifetime, res.noRefetch)
	fmt.Fprintf(&b, "determinism: %v (fingerprints %s)\n", o.Identical, strings.Join(o.Fingerprints, " "))
	r.Text = b.String()

	r.metric("fleet_agents", float64(fleet.agents), 0, false)
	r.metric("fleet_max_seconds", fleetMax, 240, true)
	r.metric("fleet_p50_seconds", fleet.quantile(0.50).Seconds(), 0, false)
	r.metric("fleet_same_cluster_frac", fleet.sameCluster, 0, false)
	r.metric("delta_wire_frac", delta.wireFrac, 0.25, true)
	r.metric("resume_verified_chunks", float64(res.verified), 0, false)
	r.metric("resume_no_refetch", boolMetric(res.noRefetch), 1, true)
	r.metric("deterministic", boolMetric(o.Identical), 1, true)
	return r
}
