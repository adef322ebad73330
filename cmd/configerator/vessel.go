package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"configerator/internal/landingstrip"
	"configerator/internal/packagevessel"
	"configerator/internal/packagevessel/blob"
	"configerator/internal/vclock"
	"configerator/internal/vcs"
)

// vesselWorld is the in-process demo universe the vessel subcommands
// operate on (same pattern as `status`): a 24-agent swarm in four clusters
// and a landing strip whose gate validates tag promotions. Everything is
// seeded, so repeated runs print the same numbers.
type vesselWorld struct {
	*packagevessel.Swarm
	strip *landingstrip.Strip
}

const (
	vesselDemoSeed   = 7
	vesselDemoAgents = 24
	vesselDemoWait   = 10 * time.Minute
)

func newVesselWorld() *vesselWorld {
	w := &vesselWorld{Swarm: packagevessel.NewSwarm(vesselDemoSeed, vesselDemoAgents, 4)}
	w.strip = landingstrip.New(vcs.NewRepository("shared"), vcs.DefaultCostModel())
	w.strip.Gate = landingstrip.PromotionGate(w.Registry)
	return w
}

// publish registers a synthetic package version in the registry.
func (w *vesselWorld) publish(name string, version int64, sizeMB int) blob.Manifest {
	var pkg packagevessel.Package
	if version > 1 {
		base := packagevessel.SyntheticPackage(name, 1, sizeMB<<20,
			packagevessel.DefaultChunkSize, vesselDemoSeed)
		pkg = packagevessel.NextVersion(base, version, 0.125, vesselDemoSeed)
	} else {
		pkg = packagevessel.SyntheticPackage(name, version, sizeMB<<20,
			packagevessel.DefaultChunkSize, vesselDemoSeed)
	}
	m, err := w.Registry.Publish(pkg)
	if err != nil {
		fatal("publish %s@%d: %v", name, version, err)
	}
	return m
}

// spread summarises one demo delivery (the whole fleet completes it within
// the demo's ten simulated minutes): the slowest agent and the chunks the
// fleet fetched and deduped.
func spread(done []packagevessel.Delivery) (slowest time.Duration, fetched, deduped int) {
	if len(done) != vesselDemoAgents {
		fatal("vessel demo fleet incomplete: %d of %d", len(done), vesselDemoAgents)
	}
	for _, d := range done {
		slowest = max(slowest, d.Took)
		fetched += d.Stats.ChunksFetched
		deduped += d.Stats.ChunksDeduped
	}
	return slowest, fetched, deduped
}

// promoteThroughStrip routes a Promote through the landing strip gate —
// the tag write lands like any other reviewed config change or is
// refused by the promotion rules.
func (w *vesselWorld) promoteThroughStrip(name, tag string, version int64) error {
	rec, err := w.Registry.Promote(name, tag, version)
	if err != nil {
		return err
	}
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	wc := w.strip.Repo().Clone("promoter")
	wc.Write(packagevessel.TagPath(name, tag), data)
	res := w.strip.Submit(wc.Diff(fmt.Sprintf("promote %s/%s -> v%d", name, tag, version)), vclock.Epoch)
	if res.Err != nil {
		return res.Err
	}
	return w.Registry.ApplyTag(rec)
}

// runVessel dispatches the vessel subcommands.
func runVessel(args []string, asJSON bool) {
	if len(args) == 0 {
		fatal("vessel requires a subcommand: publish, promote, or status")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "publish":
		runVesselPublish(rest, asJSON)
	case "promote":
		runVesselPromote(rest, asJSON)
	case "status":
		runVesselStatus(rest, asJSON)
	default:
		fatal("unknown vessel subcommand %q (want publish, promote, or status)", sub)
	}
}

// runVesselPublish publishes v1 of a package into the content-addressed
// registry, swarms it to the demo fleet, then publishes a 12.5% delta as
// v2 — showing dedup at the registry and on the wire.
func runVesselPublish(args []string, asJSON bool) {
	name, sizeMB := "feed-ranker-model", 64
	if len(args) > 0 {
		name = args[0]
	}
	if len(args) > 1 {
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 || n > 1024 {
			fatal("SIZE_MB must be a positive integer up to 1024, got %q", args[1])
		}
		sizeMB = n
	}
	if len(args) > 2 {
		fatal("vessel publish takes at most NAME and SIZE_MB")
	}

	w := newVesselWorld()
	m1 := w.publish(name, 1, sizeMB)
	st1 := w.Registry.LastPublish()
	slow1, fetched1, _ := spread(w.Deliver(m1, w.Tracker.ID(), vesselDemoWait))
	m2 := w.publish(name, 2, sizeMB)
	st2 := w.Registry.LastPublish()
	slow2, fetched2, deduped2 := spread(w.Deliver(m2, w.Tracker.ID(), vesselDemoWait))

	if asJSON {
		out := struct {
			Name        string `json:"name"`
			SizeMB      int    `json:"size_mb"`
			V1Manifest  string `json:"v1_manifest"`
			V2Manifest  string `json:"v2_manifest"`
			V1New       int    `json:"v1_new_chunks"`
			V2New       int    `json:"v2_new_chunks"`
			V2Dedup     int    `json:"v2_dedup_chunks"`
			V1SlowestMs int64  `json:"v1_slowest_ms"`
			V2SlowestMs int64  `json:"v2_slowest_ms"`
			V1Fetched   int    `json:"v1_fleet_chunks_fetched"`
			V2Fetched   int    `json:"v2_fleet_chunks_fetched"`
			V2Deduped   int    `json:"v2_fleet_chunks_deduped"`
		}{name, sizeMB, m1.Digest().String(), m2.Digest().String(),
			st1.NewChunks, st2.NewChunks, st2.DedupChunks,
			slow1.Milliseconds(), slow2.Milliseconds(),
			fetched1, fetched2, deduped2}
		printJSON(out)
		return
	}
	fmt.Printf("published %s v1 (%d MB): manifest %s, %d chunks stored\n",
		name, sizeMB, m1.Digest(), st1.NewChunks)
	fmt.Printf("  swarm delivery to %d servers: slowest %v, fleet fetched %d chunks\n",
		len(w.Agents), slow1.Round(time.Millisecond), fetched1)
	fmt.Printf("published %s v2 (12.5%% delta): manifest %s, %d new chunks, %d deduped against v1\n",
		name, m2.Digest(), st2.NewChunks, st2.DedupChunks)
	fmt.Printf("  swarm delivery: slowest %v, fleet fetched %d chunks, deduped %d from local stores\n",
		slow2.Round(time.Millisecond), fetched2, deduped2)
	fmt.Printf("  tags: %v\n", w.Registry.Tags(name))
}

// runVesselPromote moves a tag through the landing-strip promotion gate.
func runVesselPromote(args []string, asJSON bool) {
	name, tag, version := "feed-ranker-model", "canary", int64(2)
	if len(args) > 0 {
		if len(args) != 3 {
			fatal("vessel promote takes NAME TAG VERSION (or no arguments for the demo)")
		}
		name, tag = args[0], args[1]
		v, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil || v <= 0 {
			fatal("VERSION must be a positive integer, got %q", args[2])
		}
		version = v
	}

	w := newVesselWorld()
	// The demo registry holds v1 and v2 of the default package.
	w.publish("feed-ranker-model", 1, 16)
	w.publish("feed-ranker-model", 2, 16)

	err := w.promoteThroughStrip(name, tag, version)
	if asJSON {
		out := struct {
			Name    string `json:"name"`
			Tag     string `json:"tag"`
			Version int64  `json:"version"`
			Landed  bool   `json:"landed"`
			Error   string `json:"error,omitempty"`
		}{Name: name, Tag: tag, Version: version, Landed: err == nil}
		if err != nil {
			out.Error = err.Error()
		}
		printJSON(out)
		if err != nil {
			// Machine callers still need the failure exit code.
			fmt.Println()
			fatal("promotion refused")
		}
		return
	}
	if err != nil {
		fatal("promotion %s/%s -> v%d refused: %v", name, tag, version, err)
	}
	fmt.Printf("promoted %s/%s -> v%d (tag record landed through the strip gate at %s)\n",
		name, tag, version, packagevessel.TagPath(name, tag))
	fmt.Printf("  tags now: %v\n", w.Registry.Tags(name))
}

// runVesselStatus prints the registry's view after the demo rollout:
// packages, versions, tags, and chunk-store accounting.
func runVesselStatus(args []string, asJSON bool) {
	if len(args) != 0 {
		fatal("vessel status takes no arguments")
	}
	w := newVesselWorld()
	m1 := w.publish("feed-ranker-model", 1, 64)
	spread(w.Deliver(m1, w.Tracker.ID(), vesselDemoWait))
	m2 := w.publish("feed-ranker-model", 2, 64)
	st := w.Registry.LastPublish()
	spread(w.Deliver(m2, w.Tracker.ID(), vesselDemoWait))
	for _, tag := range []string{"canary", "prod"} {
		if err := w.promoteThroughStrip("feed-ranker-model", tag, 2); err != nil {
			fatal("demo promotion failed: %v", err)
		}
	}

	type pkgView struct {
		Name     string           `json:"name"`
		Versions []int64          `json:"versions"`
		Tags     map[string]int64 `json:"tags"`
	}
	var pkgs []pkgView
	for _, name := range w.Registry.PackageNames() {
		view := pkgView{Name: name, Tags: w.Registry.Tags(name)}
		for v := int64(1); w.Registry.HasVersion(name, v); v++ {
			view.Versions = append(view.Versions, v)
		}
		pkgs = append(pkgs, view)
	}
	if asJSON {
		out := struct {
			Packages   []pkgView `json:"packages"`
			LastNew    int       `json:"last_publish_new_chunks"`
			LastDedup  int       `json:"last_publish_dedup_chunks"`
			SavedBytes int64     `json:"last_publish_dedup_bytes"`
		}{pkgs, st.NewChunks, st.DedupChunks, st.DedupBytes}
		printJSON(out)
		return
	}
	fmt.Printf("registry: %d package(s)\n", len(pkgs))
	for _, p := range pkgs {
		fmt.Printf("  %-24s versions %v\n", p.Name, p.Versions)
		tags := make([]string, 0, len(p.Tags))
		for t := range p.Tags {
			tags = append(tags, t)
		}
		sort.Strings(tags)
		for _, t := range tags {
			fmt.Printf("    %-8s -> v%d  (%s)\n", t, p.Tags[t], packagevessel.TagPath(p.Name, t))
		}
	}
	fmt.Printf("last publish: %d new chunks, %d deduped (%.0f MB not re-stored)\n",
		st.NewChunks, st.DedupChunks, float64(st.DedupBytes)/(1<<20))
}

// printJSON prints v as indented encoding/json output: the one encoder
// every -json form goes through.
func printJSON(v interface{}) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal("encoding JSON: %v", err)
	}
	fmt.Println(string(data))
}
