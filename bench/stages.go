package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"configerator/internal/canary"
	"configerator/internal/cdl/analysis"
	"configerator/internal/ci"
	"configerator/internal/core"
	"configerator/internal/tailer"
	"configerator/internal/vcs"
)

// The staged replay drives one change through the public calls that
// core.Pipeline.Submit makes, in Submit's order, with a span around each.
// It exists because Submit's stages cannot be timed from outside any other
// way; in-program spans are a later change. It covers the request shapes
// author_change generates (source and raw edits in one repository, no
// deletes) and advances the simulated clock exactly as Submit does, so a
// replayed plan must end on the same head commit hash as the same plan run
// through Submit. That equality is checked on every traced run and is the
// proof the replay did not drift from the product.

// replayFS is the change's working-tree view: staged sources over the
// repositories (core's overlayFS, which is not exported).
type replayFS struct {
	repos   *vcs.RepoSet
	overlay map[string][]byte
}

func (o replayFS) ReadFile(path string) ([]byte, error) {
	if data, ok := o.overlay[path]; ok {
		return data, nil
	}
	return o.repos.ReadFile(path)
}

func isTopLevel(path string) bool { return strings.HasSuffix(path, ".cconf") }

// configRoots lists every top-level source visible through the overlay.
func configRoots(repos *vcs.RepoSet, overlay map[string][]byte) []string {
	seen := map[string]bool{}
	var roots []string
	add := func(path string) {
		if isTopLevel(path) && !seen[path] {
			seen[path] = true
			roots = append(roots, path)
		}
	}
	for _, repo := range repos.Repos() {
		for _, path := range repo.Paths() {
			add(path)
		}
	}
	for path := range overlay {
		add(path)
	}
	sort.Strings(roots)
	return roots
}

// replayer is the staged replay's state: the tracer, and what is read at
// span boundaries of timed ops.
type replayer struct {
	t *tracer
	// simAllocs counts heap objects allocated inside simnet.RunFor spans;
	// canaryEvents and canarySim count simulator events and simulated time
	// inside canary.Run spans.
	simAllocs    uint64
	canaryEvents uint64
	canarySim    time.Duration
}

// submit is submitFn for the traced run.
func (rp *replayer) submit(r *authorRig, op int, req *core.ChangeRequest) error {
	p, net, t := r.pipe, r.fleet.Net, rp.t
	root := t.begin("core.Submit", op)
	defer t.end(root)
	runFor := func(d time.Duration) {
		before := heapObjects()
		t.in("simnet.RunFor", op, func() { net.RunFor(d) })
		if op >= 0 {
			rp.simAllocs += heapObjects() - before
		}
	}

	// Stage 1: lint, dataflow, compile.
	fs := replayFS{repos: p.Repos, overlay: req.Sources}
	changed := sortedKeys(req.Sources)
	if len(changed) > 0 {
		var affected []string
		t.in("depgraph.Dependents", op, func() {
			seen := map[string]bool{}
			for _, path := range append(append([]string(nil), changed...), p.Deps.Dependents(changed...)...) {
				if !seen[path] {
					seen[path] = true
					affected = append(affected, path)
				}
			}
			sort.Strings(affected)
		})
		var diags []analysis.Diagnostic
		var err error
		t.in("analysis.Run", op, func() {
			d := analysis.NewDriver(p.Engine, fs)
			d.DeprecatedSitevars = p.DeprecatedSitevars
			diags, err = d.Run(affected)
		})
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		if analysis.HasErrors(diags) {
			return fmt.Errorf("lint: %s", analysis.Summary(analysis.Filter(diags, analysis.Error)))
		}
		id := t.begin("dataflow.Analyze", op)
		rep := p.Dataflow.Analyze(fs, configRoots(p.Repos, req.Sources))
		t.end(id)
		id = t.begin("dataflow.Radius", op)
		rad := rep.Radius(changed)
		rad.Domains = []string{"default"}
		rad.Rescore()
		ddiags := rep.DeterminacyFor(rad.Artifacts)
		for _, path := range changed {
			pr := rep.Radius([]string{path})
			p.Risk.SetReach(path, len(pr.Artifacts)+len(pr.Consumers))
		}
		t.end(id)
		if analysis.HasErrors(ddiags) {
			return fmt.Errorf("determinacy: %s", analysis.Summary(ddiags))
		}
	}
	var toCompile []string
	t.in("depgraph.RecompileSet", op, func() { toCompile = p.Deps.RecompileSet(changed, isTopLevel) })
	id := t.begin("cdl.CompileAll", op)
	results, err := p.Engine.CompileAll(fs, toCompile)
	t.end(id)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	compiled := make(map[string][]byte, len(results))
	srcFor := make(map[string]string, len(results))
	for _, res := range results {
		compiled[core.ArtifactPath(res.Path)] = res.JSON
		srcFor[core.ArtifactPath(res.Path)] = res.Path
	}
	p.Sandbox.Compile = ci.RecompileCheck(p.Engine, fs, srcFor)
	p.Sandbox.Lint = ci.LintCheck(p.Engine, fs, srcFor)

	// Stage 2: review with CI results and risk flags.
	diff := p.Review.Submit(req.Author, req.Title, net.Now())
	changeSet := ci.ChangeSet{}
	for path, data := range compiled {
		changeSet[path] = data
	}
	for path, data := range req.Raws {
		changeSet[path] = data
	}
	var ciRes ci.Result
	t.in("ci.Run", op, func() { ciRes = p.Sandbox.Run(changeSet) })
	_ = p.Review.PostTestResults(diff.ID, ciRes.Logs) // the diff was just created
	runFor(ciRes.Duration)
	if !ciRes.Passed {
		return fmt.Errorf("ci: %s", strings.Join(ciRes.Failures, "; "))
	}
	touched := make(map[string][]byte, len(req.Sources)+len(changeSet))
	for path, data := range req.Sources {
		touched[path] = data
	}
	for path, data := range changeSet {
		touched[path] = data
	}
	deltas := make(map[string]int, len(touched))
	t.in("riskadvisor.Assess", op, func() {
		for path, data := range touched {
			current, err := p.Repos.ReadFile(path)
			if err != nil {
				current = nil // new file: every line is an addition
			}
			deltas[path] = vcs.DiffLines(current, data).Total()
			for _, flag := range p.Risk.Assess(path, req.Author, deltas[path], net.Now()) {
				_ = p.Review.Comment(diff.ID, "risk-advisor", flag.String())
			}
		}
	})
	if err := p.Review.Approve(diff.ID, req.Reviewer, net.Now()); err != nil {
		return fmt.Errorf("review: %w", err)
	}

	// Stage 3: canary every artifact of the change set on the live fleet.
	if !req.SkipCanary {
		for _, artifact := range sortedKeys(changeSet) {
			spec := canary.DefaultSpec(core.ZeusPrefix+artifact, len(r.fleet.AllServers())/2)
			spec.Phases[0].TestServers = 20
			var cres canary.Report
			done := false
			events, simStart := net.Events, net.Now()
			id := t.begin("canary.Run", op)
			p.Canary.Run(spec, changeSet[artifact], func(rep canary.Report) { cres, done = rep, true })
			for i := 0; i < 360 && !done; i++ {
				runFor(5 * time.Second)
			}
			t.end(id)
			if op >= 0 {
				rp.canaryEvents += net.Events - events
				rp.canarySim += net.Now().Sub(simStart)
			}
			if !done || !cres.Passed {
				return fmt.Errorf("canary did not pass for %s", artifact)
			}
		}
	}

	// Stage 4: land through the strip. The strip's gate re-runs lint and
	// dataflow on the diff; its span comes from the wrapped Gate hook.
	var changes []vcs.Change
	for _, path := range sortedKeys(touched) {
		changes = append(changes, vcs.Change{Path: path, Content: touched[path]})
	}
	shards := p.Repos.SplitDiff(&vcs.Diff{Author: req.Author, Message: req.Title, Changes: changes})
	var worst time.Duration
	for repo, shard := range shards { // author_change has one repository
		strip := p.Strip(shard.Changes[0].Path)
		gate := strip.Gate
		strip.Gate = func(d *vcs.Diff) (err error) {
			t.in("landingstrip.Gate", op, func() { err = gate(d) })
			return err
		}
		id := t.begin("landingstrip.Submit", op)
		res := strip.Submit(shard, net.Now())
		t.end(id)
		strip.Gate = gate
		if res.Err != nil {
			return fmt.Errorf("land in %s: %w", repo.Name, res.Err)
		}
		if res.Latency() > worst {
			worst = res.Latency()
		}
	}
	runFor(worst)
	if len(changed) > 0 {
		t.in("cdl.InvalidatePaths", op, func() {
			p.Engine.InvalidatePaths(append(append([]string(nil), changed...), p.Deps.Dependents(changed...)...)...)
		})
		t.in("depgraph.ExtractAndSet", op, func() {
			for _, path := range changed {
				_ = p.Deps.ExtractAndSet(path, req.Sources[path]) // it compiled, so it parses
			}
		})
	}
	for _, path := range sortedKeys(touched) {
		p.Risk.Observe(path, req.Author, deltas[path], net.Now())
	}

	// Stage 5: the tailer polls, Zeus commits, the tree pushes.
	runFor(tailer.PollInterval + 10*time.Second)
	return nil
}
