// Package core assembles the Configerator pipeline of Figure 3: authoring
// (the CDL compiler), dependency tracking, code review (Phabricator),
// continuous integration (Sandcastle), automated canary, the landing
// strip, the git tailer, Zeus distribution, and the per-server proxies.
//
// A ChangeRequest walks the same path an engineer's diff walks in the
// paper: compile + validate → review with CI results attached → canary on
// live servers → land through the strip → tail into Zeus → push to every
// subscribed proxy.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"configerator/internal/canary"
	"configerator/internal/cdl"
	"configerator/internal/cdl/analysis"
	"configerator/internal/cdl/analysis/dataflow"
	"configerator/internal/ci"
	"configerator/internal/cluster"
	"configerator/internal/depgraph"
	"configerator/internal/landingstrip"
	"configerator/internal/obs"
	"configerator/internal/review"
	"configerator/internal/riskadvisor"
	"configerator/internal/simnet"
	"configerator/internal/tailer"
	"configerator/internal/vcs"
)

// ZeusPrefix is where compiled artifacts live in the Zeus namespace.
const ZeusPrefix = "/configs/"

// Options configures a pipeline.
type Options struct {
	// Repos is the partitioned repository set; a fresh single-default set
	// is created when nil.
	Repos *vcs.RepoSet
	// Fleet enables canary testing and distribution. Optional.
	Fleet *cluster.Fleet
	// CanaryPhase1 is the small canary phase size (default 20, the
	// paper's first phase).
	CanaryPhase1 int
	// CanaryPhase2 is the cluster-scale canary phase size (default: half
	// the fleet, leaving the rest as the control group).
	CanaryPhase2 int
	// HighRadiusArtifacts is the blast-radius artifact count at which a
	// change may no longer land via a direct strip submit and must come
	// through the pipeline (so the canary covers its radius). 0 means
	// DefaultHighRadiusArtifacts; negative disables the check.
	HighRadiusArtifacts int
	// Obs receives traces, histograms, and counters for every change.
	// When nil, the fleet's registry is used (if any); nil overall means
	// zero-overhead no-op instrumentation.
	Obs *obs.Registry
}

// Pipeline is the assembled Configerator deployment.
type Pipeline struct {
	Repos *vcs.RepoSet
	Cost  vcs.CostModel
	// Deps is an empty dependency graph the pipeline never reads: the
	// benchmark's staged replay of Submit keeps and queries it itself. It
	// goes with internal/depgraph once [ledger] moves the replay onto the
	// head snapshot.
	Deps    *depgraph.Graph
	Review  *review.Queue
	Sandbox *ci.Sandbox
	// Engine is the shared CDL compilation engine. It lives for the whole
	// pipeline lifetime: its caches are content-addressed, so compiles
	// across different changes (each with its own overlay view) reuse
	// parse trees and module evaluations for unchanged files.
	Engine  *cdl.Engine
	Fleet   *cluster.Fleet
	Canary  *canary.Runner
	Tailers []*tailer.Tailer
	// Risk is the advisory flagger for high-risk updates (the §8 future
	// work, implemented): it learns from every landed change and posts
	// findings onto review diffs without blocking them.
	Risk *riskadvisor.Advisor
	// Dataflow is the memoized whole-repo analysis index shared by stage 1
	// and every landing strip's gate; it rides the same engine parse cache
	// as lint and compile.
	Dataflow *dataflow.Index
	// head is the analysis snapshot of the repositories at headTrees, the
	// head tree each repository had when the pipeline last caught up, and
	// the pipeline's import graph: every dependency question (lint set,
	// recompile set, invalidation) is asked of it. Stage 1 and the strip
	// gates derive a change's view from it; only catchUp moves it.
	head      *dataflow.Repo
	headTrees map[*vcs.Repository]vcs.Tree
	// DeprecatedSitevars configures the deprecated-sitevar analyzer:
	// sitevar name → replacement note.
	DeprecatedSitevars map[string]string
	// Obs is the observability registry every stage reports into. Each
	// Submit opens a commit-scoped trace here; per-stage latencies land in
	// "stage.<name>" histograms, and the fleet components stitch
	// distribution hops into the same trace.
	Obs *obs.Registry

	strips map[*vcs.Repository]*landingstrip.Strip
	net    *simnet.Network // the fleet's, or one with no nodes: the pipeline's clock
	phase1 int
	phase2 int
	// highRadiusAt is the resolved HighRadiusArtifacts threshold (0 =
	// disabled).
	highRadiusAt int
	// cleared marks, by pointer identity, the diff shards the pipeline is
	// about to land after canarying (or when no canary infrastructure
	// exists): the strip gate exempts them from the high-radius refusal.
	cleared map[*vcs.Diff]bool
	// landing maps each shard Submit is landing to its whole change: the
	// gate checks a shard's artifacts against the tree the whole change
	// leaves, since its sibling shards land right after it.
	landing map[*vcs.Diff]*changeView
}

// New assembles a pipeline.
func New(opts Options) *Pipeline {
	p := &Pipeline{
		Repos:   opts.Repos,
		Cost:    vcs.DefaultCostModel(),
		Deps:    depgraph.New(),
		Review:  review.NewQueue(),
		Sandbox: ci.NewSandbox(0),
		Engine:  cdl.NewEngine(),
		Fleet:   opts.Fleet,
		Risk:    riskadvisor.New(),
		strips:  make(map[*vcs.Repository]*landingstrip.Strip),
		phase1:  opts.CanaryPhase1,
		phase2:  opts.CanaryPhase2,
		cleared: make(map[*vcs.Diff]bool),
		landing: make(map[*vcs.Diff]*changeView),
	}
	p.Obs = opts.Obs
	if p.Obs == nil && opts.Fleet != nil {
		p.Obs = opts.Fleet.Obs
	}
	p.Dataflow = dataflow.NewIndex(p.Engine)
	p.highRadiusAt = opts.HighRadiusArtifacts
	if p.highRadiusAt == 0 {
		p.highRadiusAt = DefaultHighRadiusArtifacts
	} else if p.highRadiusAt < 0 {
		p.highRadiusAt = 0
	}
	if p.Repos == nil {
		p.Repos = vcs.NewRepoSet("configerator")
	}
	p.head = p.Dataflow.Analyze(p.Repos, nil)
	p.headTrees = make(map[*vcs.Repository]vcs.Tree)
	if p.Fleet != nil {
		p.Canary = canary.NewRunner(p.Fleet.Net, p.Fleet)
		if p.phase1 == 0 {
			p.phase1 = 20
		}
		if p.phase2 == 0 {
			p.phase2 = len(p.Fleet.AllServers()) / 2
		}
		for i, repo := range p.Repos.Repos() {
			id := simnet.NodeID(fmt.Sprintf("tailer-%d", i))
			p.Tailers = append(p.Tailers, tailer.New(p.Fleet.Net, id,
				simnet.Placement{Region: "us-west", Cluster: "ctrl"},
				repo, p.Fleet.Ensemble.Members, ZeusPrefix))
		}
		p.net = p.Fleet.Net
	} else {
		p.net = simnet.New(simnet.DefaultLatency(), 0)
	}
	p.catchUp()
	return p
}

// Now reports pipeline time: the fleet's virtual clock, or a fleetless
// pipeline's own.
func (p *Pipeline) Now() time.Time { return p.net.Now() }

func (p *Pipeline) advance(d time.Duration) { p.net.RunFor(d) }

// Strip returns the landing strip for the repo owning path.
func (p *Pipeline) Strip(path string) *landingstrip.Strip {
	return p.stripFor(p.Repos.Route(path))
}

// stripFor returns repo's landing strip, gated by the pipeline's analysis;
// a repository added after New gets its strip on first use.
func (p *Pipeline) stripFor(repo *vcs.Repository) *landingstrip.Strip {
	strip := p.strips[repo]
	if strip == nil {
		strip = landingstrip.New(repo, p.Cost)
		strip.Gate = p.gate
		p.strips[repo] = strip
	}
	return strip
}

func isSource(path string) bool {
	return strings.HasSuffix(path, ".cconf") || strings.HasSuffix(path, ".cinc") ||
		strings.HasSuffix(path, ".schema")
}

func isTopLevel(path string) bool { return strings.HasSuffix(path, ".cconf") }

// ArtifactPath maps a source path to its compiled JSON artifact path.
func ArtifactPath(src string) string {
	return strings.TrimSuffix(src, ".cconf") + ".json"
}

// changeView is one proposed change as the compiler and the analyses see
// it: its edits staged over the repositories (a cdl.FileSystem), and which
// sources it writes and which it removes.
type changeView struct {
	repos   *vcs.RepoSet
	overlay map[string][]byte
	deleted map[string]bool
	// edited and removed are sorted; touched is both, edited first.
	edited, removed, touched []string
}

// viewOfRequest stages a request's source edits and deletes.
func (p *Pipeline) viewOfRequest(req *ChangeRequest) *changeView {
	v := &changeView{repos: p.Repos, overlay: req.Sources, deleted: make(map[string]bool)}
	for path := range req.Sources {
		v.edited = append(v.edited, path)
	}
	for _, path := range req.Deletes {
		v.deleted[path] = true
		if isSource(path) {
			v.removed = append(v.removed, path)
		}
	}
	return v.sorted()
}

// viewOfDiff stages a diff handed to a landing strip: every file it writes
// or deletes, artifacts included, so the view reads as the tree after it
// lands; edited and removed list its sources.
func (p *Pipeline) viewOfDiff(d *vcs.Diff) *changeView {
	v := &changeView{repos: p.Repos, overlay: make(map[string][]byte), deleted: make(map[string]bool)}
	for _, ch := range d.Changes {
		if ch.Delete {
			v.deleted[ch.Path] = true
		} else {
			v.overlay[ch.Path] = ch.Content
		}
		switch {
		case !isSource(ch.Path):
		case ch.Delete:
			v.removed = append(v.removed, ch.Path)
		default:
			v.edited = append(v.edited, ch.Path)
		}
	}
	return v.sorted()
}

// sorted finishes a constructor: it orders the collected path lists and
// fills touched.
func (v *changeView) sorted() *changeView {
	sort.Strings(v.edited)
	sort.Strings(v.removed)
	v.touched = append(append([]string(nil), v.edited...), v.removed...)
	return v
}

// ReadFile implements cdl.FileSystem.
func (v *changeView) ReadFile(path string) ([]byte, error) {
	if v.deleted[path] {
		return nil, fmt.Errorf("core: %s deleted in this change", path)
	}
	if data, ok := v.overlay[path]; ok {
		return data, nil
	}
	return v.repos.ReadFile(path)
}

// ChangeRequest is one proposed config change.
type ChangeRequest struct {
	Author   string
	Title    string
	Reviewer string
	// Sources are config-as-code edits (.cconf/.cinc/.schema).
	Sources map[string][]byte
	// Raws are raw config edits, committed and distributed verbatim
	// (§6.1: manually edited or produced by other automation tools).
	Raws map[string][]byte
	// Deletes removes files.
	Deletes []string
	// ReviewNotes are human-readable intent lines posted onto the review
	// diff (e.g. the Gatekeeper UI's "Updated employee sampling from 1%
	// to 10%", footnote 1 of the paper).
	ReviewNotes []string
	// SkipCanary bypasses canary testing (e.g. no fleet impact).
	SkipCanary bool
	// OverrideCanary lands despite a canary failure — the human override
	// of the §6.4 anecdote ("It must be a false positive!").
	OverrideCanary bool
}

// ChangeReport is the pipeline's account of one change.
type ChangeReport struct {
	DiffID int
	// Lint holds every static-analysis diagnostic over the change's
	// affected set (changed sources plus their transitive importers).
	// Error diagnostics fail stage 1; warnings ride along for the review.
	Lint []analysis.Diagnostic
	// Compiled maps artifact path -> canonical JSON.
	Compiled map[string][]byte
	// Recompiled lists dependent sources rebuilt because an import
	// changed.
	Recompiled []string
	CIResult   *ci.Result
	// Canaries holds one report per canaried artifact, in artifact order;
	// the last is the failing one when the stage failed.
	Canaries []*canary.Report
	// RiskFlags are the advisory findings posted to the review diff.
	RiskFlags []string
	// Radius is the change's static blast radius (dataflow pass 2): every
	// downstream artifact, consumer binding, and canary domain the edit
	// can reach. Nil when the change touches no config sources.
	Radius *dataflow.Radius
	// RiskScore combines the radius score with the risk-advisor flags
	// (WeightRiskFlag per flag) into one deterministic number.
	RiskScore float64
	// Landed maps repository name -> commit hash.
	Landed map[string]vcs.Hash
	// Timings records per-stage virtual durations.
	Timings map[string]time.Duration

	FailedStage string
	Err         error
	Submitted   time.Time
	Finished    time.Time

	// lineDeltas caches per-path update sizes measured pre-land (shared
	// between risk assessment and post-land history recording).
	lineDeltas map[string]int
}

// OK reports whether the change landed.
func (r *ChangeReport) OK() bool { return r.Err == nil && len(r.Landed) > 0 }

// Errors for pipeline stages.
var (
	ErrLintFailed   = errors.New("core: static analysis found errors")
	ErrCIFailed     = errors.New("core: continuous integration tests failed")
	ErrCanaryFailed = errors.New("core: canary aborted the rollout")
	ErrEmptyChange  = errors.New("core: change contains no edits")
	// ErrNondeterministic: the dataflow determinacy pass found an artifact
	// whose output depends on overlay import / shard land order.
	ErrNondeterministic = errors.New("core: change makes artifact output depend on import/land order")
	// ErrHighRadius: the change's static blast radius exceeds the
	// direct-submit threshold and must land through the pipeline's canary.
	ErrHighRadius = errors.New("core: high blast-radius change requires canary")
	// ErrStaleArtifact: a diff at the landing strip would leave a compiled
	// artifact that is not its source compiled at the post-land head.
	ErrStaleArtifact = errors.New("core: compiled artifact differs from its source's compile")
)

// affected returns the sources the view writes plus every transitive
// importer at head, before the change's own edges, minus what the view
// deletes, sorted.
func (p *Pipeline) affected(v *changeView) []string {
	out := append(p.head.Dependents(v.edited...), v.edited...)
	out = slices.DeleteFunc(out, func(path string) bool { return v.deleted[path] })
	sort.Strings(out)
	return out
}

// lintAffected runs the configlint analyzer suite over the view's affected
// sources, through the shared engine's parse cache, so a .cinc edit lints
// every source it can break, rooted or not.
func (p *Pipeline) lintAffected(v *changeView) []analysis.Diagnostic {
	roots := p.affected(v)
	if len(roots) == 0 {
		return nil
	}
	d := analysis.NewDriver(p.Engine, v)
	d.DeprecatedSitevars = p.DeprecatedSitevars
	diags, err := d.Run(roots)
	if err != nil {
		pos := cdl.Pos{File: roots[0], Line: 1, Col: 1}
		return []analysis.Diagnostic{{
			Pos: pos, End: pos, Severity: analysis.Error,
			Analyzer: "driver", Message: err.Error(),
		}}
	}
	return diags
}

// orderShards fixes the landing order of a cross-repo change: repository
// name order, except that a shard providing a source imported by another
// shard lands first. Each strip's gate lints its shard against the
// already-landed repositories, so the provider must be committed before
// the importer's shard reaches its strip. The imports are the change
// snapshot's. Import cycles between shards fall back to plain name order.
func orderShards(shards map[*vcs.Repository]*vcs.Diff, snap *dataflow.Repo) []*vcs.Repository {
	repos := make([]*vcs.Repository, 0, len(shards))
	for repo := range shards {
		repos = append(repos, repo)
	}
	sort.Slice(repos, func(i, j int) bool { return repos[i].Name < repos[j].Name })
	if len(repos) < 2 {
		return repos
	}
	// Which shard provides each changed source path.
	provider := make(map[string]*vcs.Repository)
	for repo, shard := range shards {
		for _, ch := range shard.Changes {
			if isSource(ch.Path) && !ch.Delete {
				provider[ch.Path] = repo
			}
		}
	}
	// deps[A] = shards whose sources A's sources directly import.
	deps := make(map[*vcs.Repository]map[*vcs.Repository]bool)
	for repo, shard := range shards {
		for _, ch := range shard.Changes {
			if !isSource(ch.Path) || ch.Delete {
				continue
			}
			for _, imp := range snap.Imports(ch.Path) {
				if from := provider[imp]; from != nil && from != repo {
					if deps[repo] == nil {
						deps[repo] = make(map[*vcs.Repository]bool)
					}
					deps[repo][from] = true
				}
			}
		}
	}
	// Kahn's algorithm over the name-sorted list keeps the order
	// deterministic; any leftover cycle lands in name order.
	var out []*vcs.Repository
	placed := make(map[*vcs.Repository]bool)
	for len(out) < len(repos) {
		progressed := false
		for _, repo := range repos {
			if placed[repo] {
				continue
			}
			ready := true
			for dep := range deps[repo] {
				if !placed[dep] {
					ready = false
					break
				}
			}
			if ready {
				out = append(out, repo)
				placed[repo] = true
				progressed = true
			}
		}
		if !progressed {
			for _, repo := range repos {
				if !placed[repo] {
					out = append(out, repo)
					placed[repo] = true
				}
			}
		}
	}
	return out
}

// Submit drives a change through every stage. With a fleet attached, the
// virtual clock advances through canary soak times, commit costs, and
// propagation.
func (p *Pipeline) Submit(req *ChangeRequest) *ChangeReport {
	report := &ChangeReport{
		Compiled:  make(map[string][]byte),
		Landed:    make(map[string]vcs.Hash),
		Timings:   make(map[string]time.Duration),
		Submitted: p.Now(),
	}
	tr := p.Obs.StartTrace("", p.Now())
	tr.Annotate("author", req.Author)
	tr.Annotate("title", req.Title)
	fail := func(stage string, err error) *ChangeReport {
		report.FailedStage = stage
		report.Err = err
		report.Finished = p.Now()
		tr.Annotate("failed_stage", stage)
		tr.EndAt(p.Now())
		p.observeStageTimings(report)
		return report
	}
	if len(req.Sources) == 0 && len(req.Raws) == 0 && len(req.Deletes) == 0 {
		return fail("validate", ErrEmptyChange)
	}

	// ---- Stage 1: compile + validate (Configerator compiler) ----
	start := p.Now()
	spLint := tr.Span(StageLint, start)
	spCompile := tr.Span(StageCompile, start)
	p.catchUp()
	fs := p.viewOfRequest(req)
	// Static analysis gates the stage before any evaluation: the affected
	// set (changed sources + transitive importers) is linted through the
	// engine's parse cache, so the compile below re-parses nothing. The
	// whole-repo dataflow then puts the blast radius onto the change trace,
	// checks determinacy over the reached artifacts, and feeds each edited
	// source's static reach to the risk advisor.
	var rep *dataflow.Repo
	var aerr error
	report.Lint, rep, report.Radius, aerr = p.analyze(fs)
	report.Timings[StageLint] = p.Now().Sub(start)
	spLint.Attr("diagnostics", len(report.Lint))
	spLint.End(p.Now())
	if rad := report.Radius; rad != nil {
		report.RiskScore = rad.Score
		tr.Annotate("radius.artifacts", fmt.Sprintf("%d", len(rad.Artifacts)))
		tr.Annotate("radius.consumers", fmt.Sprintf("%d", len(rad.Consumers)))
		tr.Annotate("radius.score", fmt.Sprintf("%.1f", rad.Score))
	}
	if aerr != nil {
		return fail("lint", aerr)
	}
	if rep != nil {
		for _, path := range fs.edited {
			pr := rep.Radius([]string{path})
			p.Risk.SetReach(path, len(pr.Artifacts)+len(pr.Consumers))
		}
	}
	toCompile := topLevel(p.affected(fs))
	// The batch API compiles the recompile set through the shared engine:
	// dependency-topological waves over a bounded worker pool, with the
	// shared .cinc closure parsed and evaluated once instead of once per
	// dependent. Results are sorted by path and the error is the first
	// failing path's, so reports are reproducible run-to-run.
	results, cerr := p.Engine.CompileAll(fs, toCompile)
	srcForArtifact := make(map[string]string, len(results))
	for _, res := range results {
		if be, ok := cerr.(*cdl.BatchError); ok && res.Path >= be.Path {
			// Keep the seed's stop-at-first-error report shape: only
			// artifacts preceding the failing path are recorded.
			continue
		}
		report.Compiled[ArtifactPath(res.Path)] = res.JSON
		srcForArtifact[ArtifactPath(res.Path)] = res.Path
		if _, direct := req.Sources[res.Path]; !direct {
			report.Recompiled = append(report.Recompiled, res.Path)
		}
	}
	if cerr != nil {
		return fail("compile", cerr)
	}
	p.Sandbox.Compile = ci.RecompileCheck(p.Engine, fs, srcForArtifact)
	p.Sandbox.Lint = ci.LintCheck(p.Engine, fs, srcForArtifact)
	report.Timings[StageCompile] = p.Now().Sub(start)
	spCompile.Attr("artifacts", len(report.Compiled))
	spCompile.End(p.Now())

	// ---- Stage 2: review + Sandcastle CI ----
	start = p.Now()
	spReview := tr.Span(StageReviewCI, start)
	diff := p.Review.Submit(req.Author, req.Title, p.Now())
	report.DiffID = diff.ID
	changeSet := ci.ChangeSet{}
	for path, data := range report.Compiled {
		changeSet[path] = data
	}
	for path, data := range req.Raws {
		changeSet[path] = data
	}
	for _, note := range req.ReviewNotes {
		_ = p.Review.Comment(diff.ID, "ui-tool", note)
	}
	ciRes := p.Sandbox.Run(changeSet)
	report.CIResult = &ciRes
	_ = p.Review.PostTestResults(diff.ID, ciRes.Logs)
	p.advance(ciRes.Duration)
	if !ciRes.Passed {
		_ = p.Review.Reject(diff.ID, reviewerFor(req), p.Now())
		return fail("ci", fmt.Errorf("%w: %s", ErrCIFailed, strings.Join(ciRes.Failures, "; ")))
	}
	for _, flag := range p.assessRisk(req, report) {
		report.RiskFlags = append(report.RiskFlags, flag.String())
		_ = p.Review.Comment(diff.ID, "risk-advisor", flag.String())
	}
	if report.Radius != nil {
		rad := report.Radius
		report.RiskScore = rad.Score + dataflow.WeightRiskFlag*float64(len(report.RiskFlags))
		_ = p.Review.Comment(diff.ID, "dataflow",
			fmt.Sprintf("[dataflow] blast radius: %d artifacts, %d consumers, %d canary domains; risk score %.1f",
				len(rad.Artifacts), len(rad.Consumers), len(rad.Domains), report.RiskScore))
	}
	if err := p.Review.Approve(diff.ID, reviewerFor(req), p.Now()); err != nil {
		return fail("review", err)
	}
	report.Timings[StageReviewCI] = p.Now().Sub(start)
	spReview.Attr("diff", report.DiffID)
	spReview.End(p.Now())

	// ---- Stage 3: automated canary ----
	// A high-radius change may not opt out of canary: the wider the static
	// reach, the more the live-fleet check is worth.
	if p.Canary != nil && req.SkipCanary && p.highRadius(report.Radius) {
		return fail("canary", fmt.Errorf("%w: change reaches %d artifacts (threshold %d)",
			ErrHighRadius, len(report.Radius.Artifacts), p.highRadiusAt))
	}
	if p.Canary != nil && !req.SkipCanary {
		start = p.Now()
		spCanary := tr.Span(StageCanary, start)
		for _, artifact := range sortedKeys(changeSet) {
			data := changeSet[artifact]
			spec := canary.DefaultSpec(ZeusPrefix+artifact, p.phase2)
			spec.Phases[0].TestServers = p.phase1
			var cres canary.Report
			done := false
			p.Canary.Run(spec, data, func(rep canary.Report) { cres = rep; done = true })
			for i := 0; i < 360 && !done; i++ {
				p.Fleet.Net.RunFor(5 * time.Second)
			}
			report.Canaries = append(report.Canaries, &cres)
			if !done {
				return fail("canary", fmt.Errorf("core: canary never completed for %s", artifact))
			}
			if !cres.Passed && !req.OverrideCanary {
				return fail("canary", fmt.Errorf("%w: %s", ErrCanaryFailed,
					cres.Phases[len(cres.Phases)-1].FailedCheck))
			}
		}
		report.Timings[StageCanary] = p.Now().Sub(start)
		spCanary.Attr("artifacts", len(report.Canaries))
		spCanary.End(p.Now())
	}

	// ---- Stage 4: land through the strip(s) ----
	start = p.Now()
	spCommit := tr.Span(StageCommit, start)
	// Bind the change's Zeus paths to this trace before anything lands, so
	// distribution events stitched during the commit advance (the tailer
	// can poll mid-advance) and stage 5 attach to the right trace.
	for path := range report.Compiled {
		p.Obs.BindPath(ZeusPath(path), tr)
	}
	for path := range req.Raws {
		p.Obs.BindPath(ZeusPath(path), tr)
	}
	var changes []vcs.Change
	for path, data := range req.Sources {
		changes = append(changes, vcs.Change{Path: path, Content: data})
	}
	for path, data := range report.Compiled {
		changes = append(changes, vcs.Change{Path: path, Content: data})
	}
	for path, data := range req.Raws {
		changes = append(changes, vcs.Change{Path: path, Content: data})
	}
	for _, path := range req.Deletes {
		changes = append(changes, vcs.Change{Path: path, Delete: true})
		if isTopLevel(path) {
			changes = append(changes, vcs.Change{Path: ArtifactPath(path), Delete: true})
		}
	}
	whole := &vcs.Diff{Author: req.Author, Message: req.Title, Changes: changes}
	shards := p.Repos.SplitDiff(whole)
	landing := p.viewOfDiff(whole)
	// Pipeline shards are exempt from the gate's high-radius refusal when
	// the change was canaried — or when no canary infrastructure exists to
	// require (stage 3 already refused high-radius SkipCanary requests).
	canaried := p.Canary == nil || !req.SkipCanary
	var worst time.Duration
	for _, repo := range orderShards(shards, rep) {
		shard := shards[repo]
		if canaried {
			p.cleared[shard] = true
		}
		p.landing[shard] = landing
		res := p.stripFor(repo).Submit(shard, p.Now())
		delete(p.cleared, shard)
		delete(p.landing, shard)
		if res.Err != nil {
			return fail("land", res.Err)
		}
		report.Landed[repo.Name] = res.Hash
		if res.Latency() > worst {
			worst = res.Latency()
		}
	}
	p.advance(worst)
	report.Timings[StageCommit] = p.Now().Sub(start)
	// The landed commit hashes become lookup aliases, so the trace resolves
	// by (prefix of) commit hash as well as by its change-N key.
	for _, h := range report.Landed {
		p.Obs.Alias(tr, h.String())
	}
	spCommit.End(p.Now())

	// Evict engine cache entries whose closures touch the landed change.
	// The affected set — changed files plus their transitive importers —
	// is asked of the head snapshot before the next catchUp moves it past
	// the change. (Stale entries never hit, since a lookup re-reads every
	// file the entry lists; this reclaims their memory.)
	if len(fs.touched) > 0 {
		p.Engine.InvalidatePaths(append(p.head.Dependents(fs.touched...), fs.touched...)...)
	}
	p.observeRisk(req, report)

	// ---- Stage 5: tail + distribute ----
	if p.Fleet != nil {
		start = p.Now()
		spProp := tr.Span(StagePropagate, start)
		tr.SetDistParent(spProp)
		p.Fleet.Net.RunFor(tailer.PollInterval + 10*time.Second)
		report.Timings[StagePropagate] = p.Now().Sub(start)
		spProp.End(p.Now())
	}
	report.Finished = p.Now()
	tr.EndAt(p.Now())
	p.Obs.Add("pipeline.landed", 1)
	p.observeStageTimings(report)
	return report
}

// observeStageTimings folds a report's per-stage durations into the
// registry's "stage.<name>" histograms.
func (p *Pipeline) observeStageTimings(report *ChangeReport) {
	if p.Obs == nil {
		return
	}
	for _, name := range StageNames {
		if d, ok := report.Timings[name]; ok {
			p.Obs.Observe("stage."+name, d)
		}
	}
}

func reviewerFor(req *ChangeRequest) string {
	if req.Reviewer != "" {
		return req.Reviewer
	}
	return "reviewbot"
}

func sortedKeys(cs ci.ChangeSet) []string {
	out := make([]string, 0, len(cs))
	for k := range cs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ReadArtifact reads a compiled/raw config from the repositories.
func (p *Pipeline) ReadArtifact(path string) ([]byte, error) {
	return p.Repos.ReadFile(path)
}

// ZeusPath maps a repository artifact path to its Zeus path.
func ZeusPath(artifact string) string { return ZeusPrefix + artifact }
