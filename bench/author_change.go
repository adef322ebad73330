package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/core"
	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/stats"
)

// author_change: the paper's headline path. One author submits changes
// back-to-back through core.Pipeline.Submit against a repository of
// config-as-code and a fleet whose every server subscribes to the hot
// configs; each change is compiled, linted, analysed, reviewed with CI,
// (sometimes) canaried, landed, tailed into Zeus and pushed to every proxy.
// Most layers do some work here; dataflow, analysis, the strip gate and
// simnet do most. It is a closed loop with one client.

// authorSizes sizes the repository and the fleet.
type authorSizes struct {
	artifacts, libs, sitevars int // the dataflowFS topology: artifact i imports lib i%libs
	serversPerCluster         int // cluster.SmallConfig: 4 clusters
	hot, raws                 int // subscribed artifacts and raw JSON paths
	opsPerTenSeconds          int
}

func authorSizesFor(cfg config) authorSizes {
	if cfg.tiny {
		return authorSizes{artifacts: 40, libs: 4, sitevars: 2, serversPerCluster: 6, hot: 4, raws: 2, opsPerTenSeconds: 20}
	}
	return authorSizes{artifacts: 3000, libs: 300, sitevars: 100, serversPerCluster: 150, hot: 16, raws: 8, opsPerTenSeconds: 100}
}

// Change kinds. Every block of twenty changes has the same mix in the same
// order: 35 % one-artifact edit with canary, 25 % one-artifact edit that
// skips canary, 20 % shared-lib edit recompiling every dependent, 20 % raw
// JSON. The order is fixed, not drawn, because the tailer polls every five
// simulated seconds and each change moves the clock by a fixed amount: which
// changes wait long for the poll would otherwise depend on the shuffle and
// move sim_latency_s_p50 by several percent from seed to seed. The seed draws
// each change's target and content.
const (
	kindCanary = iota
	kindSkip
	kindLib
	kindRaw
)

var authorBlock = [20]int{
	kindCanary, kindSkip, kindLib, kindRaw, kindCanary, kindSkip, kindCanary, kindLib, kindRaw, kindSkip,
	kindCanary, kindRaw, kindLib, kindCanary, kindSkip, kindRaw, kindCanary, kindLib, kindSkip, kindCanary,
}

// authorChangeOp is one generated change: the request handed to the
// pipeline and the one subscribed Zeus path it must change.
type authorChangeOp struct {
	kind  int
	req   *core.ChangeRequest
	watch int // index into rig.paths
}

func sitevarSrc(s int) []byte { return []byte(fmt.Sprintf("let SV%d = %d;\n", s, 100+s)) }

func libSrc(sz authorSizes, l, rev int) []byte {
	a, b := l%sz.sitevars, (l+1)%sz.sitevars
	return []byte(fmt.Sprintf("import \"sitevars/sv%d.cinc\";\nimport \"sitevars/sv%d.cinc\";\n"+
		"let BASE%d = SV%d + SV%d + %d;\nlet NAME%d = \"lib%d\";\n", a, b, l, a, b, rev, l, l))
}

func artifactSrc(sz authorSizes, i, rev int) []byte {
	l := i % sz.libs
	return []byte(fmt.Sprintf("import \"lib/lib%d.cinc\";\nlet scaled = BASE%d * %d;\n"+
		"export {value: scaled, name: NAME%d, rank: %d, rev: %d};\n", l, l, i+1, l, i, rev))
}

func rawSrc(r, rev int) []byte {
	return []byte(fmt.Sprintf(`{"knob":%d,"rev":%d,"owner":"traffic","weights":[0.25,0.25,0.5]}`, r, rev))
}

func artifactPath(i int) string { return fmt.Sprintf("svc/app%d.cconf", i) }
func rawPath(r int) string      { return fmt.Sprintf("raw/knob%d.json", r) }

// authorPlan generates n changes from the seed. Targets are the hot
// artifacts (artifact i and lib i for i < hot share a dependency edge, so a
// lib edit changes exactly one subscribed artifact) and the raw paths. Every
// change writes its own revision number, counted from firstRev, so no change
// is a no-op.
func authorPlan(sz authorSizes, seed uint64, n, firstRev int) []authorChangeOp {
	rng := stats.NewRNG(seed)
	plan := make([]authorChangeOp, 0, n)
	for len(plan) < n {
		for _, kind := range authorBlock {
			if len(plan) == n {
				break
			}
			rev := firstRev + len(plan)
			op := authorChangeOp{kind: kind, req: &core.ChangeRequest{
				Author: "author", Reviewer: "reviewer", Title: fmt.Sprintf("change %d", rev),
				SkipCanary: kind != kindCanary,
			}}
			switch kind {
			case kindCanary, kindSkip:
				i := rng.Intn(sz.hot)
				op.req.Sources = map[string][]byte{artifactPath(i): artifactSrc(sz, i, rev)}
				op.watch = i
			case kindLib:
				l := rng.Intn(sz.hot)
				op.req.Sources = map[string][]byte{fmt.Sprintf("lib/lib%d.cinc", l): libSrc(sz, l, rev)}
				op.watch = l
			case kindRaw:
				r := rng.Intn(sz.raws)
				op.req.Raws = map[string][]byte{rawPath(r): rawSrc(r, rev)}
				op.watch = sz.hot + r
			}
			plan = append(plan, op)
		}
	}
	return plan
}

// authorRig is a loaded pipeline and fleet.
type authorRig struct {
	sz    authorSizes
	fleet *cluster.Fleet
	pipe  *core.Pipeline
	// paths are the subscribed repository paths (hot artifacts' compiled
	// JSON, then the raw paths); every server subscribes to all of them.
	paths []string
	// seen[server][path] is the newest zxid that server's proxy has
	// materialised; it filters canary overrides and their rollbacks (which
	// re-feed the committed entry) out of the latency samples.
	seen [][]int64
	// Materialisations of the change in flight.
	watching  int
	submitted time.Time
	arrivals  []float64
}

// submitFn lands one change: Pipeline.Submit in the untraced run, the
// staged replay in the traced one.
type submitFn func(r *authorRig, op int, req *core.ChangeRequest) error

func realSubmit(r *authorRig, _ int, req *core.ChangeRequest) error {
	rep := r.pipe.Submit(req)
	if !rep.OK() {
		return fmt.Errorf("%s blocked at %s: %w", req.Title, rep.FailedStage, rep.Err)
	}
	return nil
}

// newAuthorRig is the set-up: build the fleet, land the whole repository
// through the pipeline with cold caches (one change carrying every source
// file, so this is also the cold whole-repo compile), subscribe every server,
// and warm up with one change of each kind.
func newAuthorRig(cfg config, reg *obs.Registry, submit submitFn) (*authorRig, error) {
	sz := authorSizesFor(cfg)
	r := &authorRig{sz: sz, watching: -1}
	fc := cluster.SmallConfig(sz.serversPerCluster, cfg.seed)
	fc.Obs = reg
	r.fleet = cluster.New(fc)
	r.fleet.Net.RunFor(10 * time.Second) // elect the Zeus leader
	// The import change reaches every artifact, so the high-radius refusal
	// of canary-skipping changes is off; timed changes reach at most
	// artifacts/libs of them.
	r.pipe = core.New(core.Options{Fleet: r.fleet, HighRadiusArtifacts: -1})

	load := &core.ChangeRequest{Author: "author", Reviewer: "reviewer", Title: "import repository",
		Sources: map[string][]byte{}, Raws: map[string][]byte{}, SkipCanary: true}
	for s := 0; s < sz.sitevars; s++ {
		load.Sources[fmt.Sprintf("sitevars/sv%d.cinc", s)] = sitevarSrc(s)
	}
	for l := 0; l < sz.libs; l++ {
		load.Sources[fmt.Sprintf("lib/lib%d.cinc", l)] = libSrc(sz, l, 0)
	}
	for i := 0; i < sz.artifacts; i++ {
		load.Sources[artifactPath(i)] = artifactSrc(sz, i, 0)
	}
	for k := 0; k < sz.raws; k++ {
		load.Raws[rawPath(k)] = rawSrc(k, 0)
	}
	if err := submit(r, -1, load); err != nil {
		return nil, err
	}

	for i := 0; i < sz.hot; i++ {
		r.paths = append(r.paths, core.ArtifactPath(artifactPath(i)))
	}
	for k := 0; k < sz.raws; k++ {
		r.paths = append(r.paths, rawPath(k))
	}
	servers := r.fleet.AllServers()
	r.seen = make([][]int64, len(servers))
	for si, s := range servers {
		r.seen[si] = make([]int64, len(r.paths))
		for pi, path := range r.paths {
			si, pi := si, pi
			s.Proxy.Subscribe(core.ZeusPath(path), func(e proxy.Entry) { r.materialised(si, pi, e) })
		}
	}
	for _, path := range r.paths {
		r.fleet.SubscribeAll(core.ZeusPath(path)) // the health model samples these
	}
	r.fleet.Net.RunFor(30 * time.Second)

	// Warm-up: the first change of each kind fills the analysis memo and
	// the engine caches the way a long-running pipeline has them.
	warm := authorPlan(sz, cfg.seed, len(authorBlock), 1_000_000)
	done := map[int]bool{}
	for _, op := range warm {
		if done[op.kind] {
			continue
		}
		done[op.kind] = true
		if err := submit(r, -1, op.req); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// materialised is the proxy.Subscribe callback of every (server, path).
func (r *authorRig) materialised(server, path int, e proxy.Entry) {
	if e.Zxid <= r.seen[server][path] {
		return
	}
	r.seen[server][path] = e.Zxid
	if path == r.watching {
		r.arrivals = append(r.arrivals, r.fleet.Net.Now().Sub(r.submitted).Seconds())
	}
}

// runPlan submits the plan's changes back-to-back. An op is one landed
// change whose new version reached every server; anything else is a failed
// op.
func (r *authorRig) runPlan(plan []authorChangeOp, submit submitFn) (o outcome) {
	servers := len(r.fleet.AllServers())
	start := time.Now()
	blockStart, blockFrom := start, 0
	for i, op := range plan {
		r.watching, r.submitted, r.arrivals = op.watch, r.fleet.Net.Now(), r.arrivals[:0]
		t0 := time.Now()
		err := submit(r, i, op.req)
		d := time.Since(t0)
		r.watching = -1
		if err == nil && len(r.arrivals) != servers {
			err = fmt.Errorf("%s reached %d of %d servers", op.req.Title, len(r.arrivals), servers)
		}
		if err != nil {
			o.failed++
			if o.checkErr == nil {
				o.checkErr = err
			}
			continue
		}
		o.ops++
		o.opMs = append(o.opMs, float64(d)/1e6)
		o.simS = append(o.simS, r.arrivals...)
		if (i+1)%len(authorBlock) == 0 {
			// opMs[blockFrom:] are this block's changes (a failed change
			// fails the run, so the short block it leaves is never reported).
			o.blocks = append(o.blocks, block{
				opsPerS: float64(len(authorBlock)) / time.Since(blockStart).Seconds(),
				opMs:    o.opMs[blockFrom:],
			})
			blockStart, blockFrom = time.Now(), len(o.opMs)
		}
	}
	o.wall = time.Since(start)
	return o
}

// check reads every edited path on every server through the client library
// and compares it with the repository.
func (r *authorRig) check(plan []authorChangeOp) error {
	edited := map[int]bool{}
	for _, op := range plan {
		edited[op.watch] = true
	}
	ctx := context.Background()
	for pi := range r.paths {
		if !edited[pi] {
			continue
		}
		want, err := r.pipe.ReadArtifact(r.paths[pi])
		if err != nil {
			return err
		}
		for _, s := range r.fleet.AllServers() {
			v, err := s.Client.Get(ctx, core.ZeusPath(r.paths[pi]))
			if err != nil {
				return err
			}
			if !bytes.Equal(v.Raw, want) {
				return fmt.Errorf("%s serves %q for %s, repository has %q", s.ID, v.Raw, r.paths[pi], want)
			}
		}
	}
	return nil
}

// head fingerprints the repository: the head commit hash covers every tree,
// author, message and simulated commit time since the import.
func (r *authorRig) head() string {
	return r.pipe.Repos.Repos()[0].Head().String()
}

func authorChange(cfg config) outcome {
	var buildErr error
	rig, setupS := repeatSetup(func() *authorRig {
		r, err := newAuthorRig(cfg, nil, realSubmit)
		if err != nil {
			buildErr = err
		}
		return r
	})
	if buildErr != nil {
		return outcome{checkErr: buildErr, setupS: setupS}
	}
	plan := authorPlan(rig.sz, cfg.seed, cfg.ops(rig.sz.opsPerTenSeconds), 1)
	runtime.GC()
	o := rig.runPlan(plan, realSubmit)
	o.setupS = setupS
	if o.checkErr == nil {
		o.checkErr = rig.check(plan)
	}
	o.fingerprint = fmt.Sprintf("head=%s events=%d", rig.head(), rig.fleet.Net.Events)
	return o
}

// authorChangeTraced runs the plan three times on fresh rigs. Pass 1 is the
// untraced workload: it gives the untraced mean Submit and the head hash the
// replay must reproduce. Pass 2 is Submit again with an obs.Registry
// attached to fleet and pipeline, for the registry's cost and the counts only
// it sees. Pass 3 is the staged replay with a span around every stage.
func authorChangeTraced(cfg config, tr *tracer) outcome {
	sz := authorSizesFor(cfg)
	plan := authorPlan(sz, cfg.seed, cfg.ops(sz.opsPerTenSeconds), 1)
	fail := func(err error) outcome { return outcome{checkErr: err, rootSpan: "core.Submit"} }

	base, err := newAuthorRig(cfg, nil, realSubmit)
	if err != nil {
		return fail(err)
	}
	untraced := base.runPlan(plan, realSubmit)
	if untraced.checkErr != nil {
		return fail(untraced.checkErr)
	}
	wantHead := base.head()
	base = nil

	reg := obs.New()
	withObs, err := newAuthorRig(cfg, reg, realSubmit)
	if err != nil {
		return fail(err)
	}
	net := withObs.fleet.Net
	repo := withObs.pipe.Repos.Repos()[0]
	var delivered []time.Time
	withObs.pipe.Tailers[0].OnDelivered(func(string, int64) { delivered = append(delivered, net.Now()) })
	var tailS []float64
	observed := withObs.runPlan(plan, func(r *authorRig, op int, req *core.ChangeRequest) error {
		delivered = delivered[:0]
		if err := realSubmit(r, op, req); err != nil {
			return err
		}
		commit, _ := repo.Store().Commit(repo.Head()) // the head always exists
		for _, at := range delivered {
			tailS = append(tailS, at.Sub(commit.Time).Seconds())
		}
		return nil
	})
	if observed.checkErr != nil {
		return fail(observed.checkErr)
	}
	withObs = nil

	rp := &replayer{t: tr}
	rig, err := newAuthorRig(cfg, nil, rp.submit)
	if err != nil {
		return fail(err)
	}
	net = rig.fleet.Net
	df0 := rig.pipe.Dataflow.Counters().Snapshot()
	eng0 := rig.pipe.Engine.Counters().Snapshot()
	events0, bytes0 := net.Events, net.BytesSent
	o := rig.runPlan(plan, rp.submit)
	if o.checkErr == nil {
		o.checkErr = rig.check(plan)
	}
	if got := rig.head(); o.checkErr == nil && got != wantHead {
		o.checkErr = fmt.Errorf("staged replay drifted from Submit: head %s, Submit's %s", got, wantHead)
	}
	o.fingerprint = fmt.Sprintf("head=%s events=%d", rig.head(), net.Events)
	o.rootSpan = "core.Submit"

	ops := float64(len(plan))
	by := tr.byName()
	perOpMs := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += by[n].self
		}
		return float64(d) / 1e6 / ops
	}
	df := delta(rig.pipe.Dataflow.Counters().Snapshot(), df0)
	eng := delta(rig.pipe.Engine.Counters().Snapshot(), eng0)
	var children time.Duration
	for _, s := range tr.spans {
		if s.Op >= 0 && s.Parent >= 0 && tr.spans[s.Parent].Name == "core.Submit" {
			children += time.Duration(s.End - s.Start)
		}
	}
	// The import change is the replay rig's first Submit, so its compile
	// span is the cold compile of the whole repository.
	var coldCompile time.Duration
	for _, s := range tr.spans {
		if s.Name == "cdl.CompileAll" {
			coldCompile = time.Duration(s.End - s.Start)
			break
		}
	}
	untracedMean := untraced.wall.Seconds() / ops
	canaried := float64(by["canary.Run"].calls)
	simEvents := float64(net.Events - events0)
	o.perLayer = map[string]float64{
		"core.submit_ms":                float64(by["core.Submit"].total) / 1e6 / ops,
		"core.trace_coverage":           children.Seconds() / ops / untracedMean,
		"analysis.lint_ms":              perOpMs("analysis.Run"),
		"dataflow.analyze_ms":           perOpMs("dataflow.Analyze"),
		"dataflow.radius_ms":            perOpMs("dataflow.Radius"),
		"dataflow.recompute_per_change": float64(df["provenance.recompute"]) / ops,
		"dataflow.memo_hit_ratio":       ratio(df["provenance.memo"], df["provenance.memo"]+df["provenance.recompute"]),
		"depgraph.recompile_set_ms":     perOpMs("depgraph.RecompileSet", "depgraph.Dependents"),
		"cdl.compile_ms":                perOpMs("cdl.CompileAll"),
		"cdl.artifacts_per_change":      float64(eng["result.hit"]+eng["result.miss"]) / ops,
		"cdl.parse_hit_ratio":           ratio(eng["parse.hit"], eng["parse.hit"]+eng["parse.miss"]),
		"cdl.module_hit_ratio":          ratio(eng["module.hit"], eng["module.hit"]+eng["module.miss"]),
		"cdl.cold_repo_compile_s":       coldCompile.Seconds(),
		"ci.sandbox_ms":                 perOpMs("ci.Run"),
		"canary.run_ms":                 float64(by["canary.Run"].total) / 1e6 / canaried,
		"canary.sim_s":                  rp.canarySim.Seconds() / canaried,
		"canary.events":                 float64(rp.canaryEvents) / canaried,
		"landingstrip.gate_ms":          perOpMs("landingstrip.Gate"),
		"landingstrip.submit_ms":        perOpMs("landingstrip.Submit"),
		"tailer.sim_s_p50":              quantile(tailS, 0.50),
		"simnet.run_ms":                 perOpMs("simnet.RunFor"),
		"simnet.events":                 simEvents,
		"simnet.events_per_s":           simEvents / by["simnet.RunFor"].total.Seconds(),
		"simnet.allocs_per_event":       float64(rp.simAllocs) / simEvents,
		"simnet.wire_bytes":             float64(net.BytesSent - bytes0),
		"obs.overhead_frac":             (observed.wall.Seconds() - untraced.wall.Seconds()) / untraced.wall.Seconds(),
		"bench.traced_ops_per_s":        o.opsPerS(),
	}
	o.notes = append(o.notes,
		fmt.Sprintf("untraced Submit: mean %.2f ms over %d ops (%.2f op/s); with obs.Registry %.2f op/s; staged replay %.2f op/s",
			1e3*untracedMean, len(plan), ops/untraced.wall.Seconds(), ops/observed.wall.Seconds(), ops/o.wall.Seconds()),
		fmt.Sprintf("replay head %s equals Submit head %s: %v", rig.head(), wantHead, rig.head() == wantHead))
	return o
}
