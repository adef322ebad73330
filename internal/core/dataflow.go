// Dataflow wiring: the whole-repo analysis (internal/cdl/analysis/dataflow)
// feeds three pipeline surfaces. Stage 1 computes the change's blast radius
// and rejects non-deterministic overlay stacks; stage 2 posts the radius and
// combined risk score onto the review diff; the landing-strip gate runs the
// same analysis on diffs that bypass the pipeline, and additionally refuses
// high-radius direct submits — a change that can flip many artifacts must
// come through the pipeline so the canary covers its radius — and any diff
// that would leave a compiled artifact other than its source's compile.
package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"configerator/internal/cdl/analysis"
	"configerator/internal/cdl/analysis/dataflow"
	"configerator/internal/vcs"
)

// DefaultHighRadiusArtifacts is the artifact-count threshold above which a
// change may not land via a direct strip submit (Options.HighRadiusArtifacts
// overrides; negative disables).
const DefaultHighRadiusArtifacts = 25

// catchUp brings the head snapshot — the pipeline's one memory of the
// repositories, summaries and import graph alike — up to the head trees,
// from the Merkle diff between each repository's stamp and its head. A
// commit landed by anyone — a sitevar write, a direct strip submit, this
// pipeline's own shard — is picked up without being announced. Submit and
// the strip gate run it before they ask the snapshot a question.
func (p *Pipeline) catchUp() {
	var live, gone []string
	for _, repo := range p.Repos.Repos() {
		tree := repo.HeadTree()
		for _, path := range vcs.ChangedPaths(p.headTrees[repo], tree) {
			if !isSource(path) {
				continue
			}
			if _, ok := tree.Get(path); ok {
				live = append(live, path)
			} else { // it left the tree
				gone = append(gone, path)
			}
		}
		p.headTrees[repo] = tree
	}
	if len(live)+len(gone) > 0 {
		p.head = p.head.Derive(p.Repos, append(live, gone...), topLevel(live), topLevel(gone))
	}
}

// topLevel returns the top-level sources among paths.
func topLevel(paths []string) []string {
	var out []string
	for _, path := range paths {
		if isTopLevel(path) {
			out = append(out, path)
		}
	}
	return out
}

// analyze is the static analysis stage 1 and the strip gate share, over the
// view caught up to head: lint the affected set, derive the view's snapshot
// from the head snapshot, answer the radius query for the touched sources
// (canary domains attached), and check determinacy over the reached
// artifacts. diags holds every diagnostic found; err is the first refusal,
// ErrLintFailed before the dataflow runs or ErrNondeterministic after it.
// rep and rad are nil when the view touches no source.
func (p *Pipeline) analyze(v *changeView) (diags []analysis.Diagnostic, rep *dataflow.Repo, rad *dataflow.Radius, err error) {
	diags = p.lintAffected(v)
	if errs := analysis.Filter(diags, analysis.Error); len(errs) > 0 {
		return diags, nil, nil, fmt.Errorf("%w: %s (first: %s)", ErrLintFailed, analysis.Summary(errs), errs[0])
	}
	if len(v.touched) == 0 {
		return diags, nil, nil, nil
	}
	rep = p.head.Derive(v, v.touched, topLevel(v.edited), topLevel(v.removed))
	rad = rep.Radius(v.touched)
	if len(rad.Artifacts) > 0 {
		// Every artifact canaries under the one default spec.
		rad.Domains = []string{"default"}
	}
	rad.Rescore()
	ddiags := rep.DeterminacyFor(rad.Artifacts)
	diags = append(diags, ddiags...)
	if errs := analysis.Filter(ddiags, analysis.Error); len(errs) > 0 {
		err = fmt.Errorf("%w: %s", ErrNondeterministic, errs[0].Message)
	}
	return diags, rep, rad, err
}

// highRadius reports whether the radius exceeds the direct-submit threshold.
func (p *Pipeline) highRadius(rad *dataflow.Radius) bool {
	return rad != nil && p.highRadiusAt > 0 && len(rad.Artifacts) >= p.highRadiusAt
}

// gate is every landing strip's pre-land hook: the same analysis stage 1
// runs, so a diff submitted to a strip directly cannot land with lint errors
// or order-dependent output, plus the high-radius refusal for diffs the
// pipeline has not canaried (pointer identity marks pipeline shards in
// p.cleared around strip.Submit), plus the stale-artifact refusal: every
// artifact in the cone, and every artifact the diff writes, must equal its
// source compiled against the tree the diff leaves (a pipeline shard's: the
// tree its whole change leaves, p.landing), and a source the diff deletes
// takes its artifact with it.
func (p *Pipeline) gate(d *vcs.Diff) error {
	p.catchUp()
	v := p.viewOfDiff(d)
	_, _, rad, err := p.analyze(v)
	if err != nil {
		return fmt.Errorf("landing strip: %w", err)
	}
	if !p.cleared[d] && p.highRadius(rad) {
		return fmt.Errorf("%w: change reaches %d artifacts (threshold %d); land it through the pipeline so the canary covers the radius",
			ErrHighRadius, len(rad.Artifacts), p.highRadiusAt)
	}
	if whole := p.landing[d]; whole != nil {
		v = whole
	}
	stale, err := p.staleArtifacts(v, d, rad)
	if err != nil {
		return fmt.Errorf("landing strip: %w", err)
	}
	if len(stale) > 0 {
		return fmt.Errorf("%w: %s", ErrStaleArtifact, strings.Join(stale, ", "))
	}
	return nil
}

// staleArtifacts compiles, against the post-land view v, the top-level
// sources in rad's cone and the source of every artifact d writes or
// deletes, and returns, sorted, the artifacts that would then differ from
// their compile, along with any artifact d leaves behind a source it deletes.
// A file with no source beside it is a raw config: never compiled, never
// stale. The compiles are the ones stage 1 just ran, so a pipeline shard's
// are served from the engine's result cache.
func (p *Pipeline) staleArtifacts(v *changeView, d *vcs.Diff, rad *dataflow.Radius) ([]string, error) {
	var stale, srcs []string
	seen := make(map[string]bool)
	compile := func(src string) {
		if !seen[src] && !v.deleted[src] {
			seen[src] = true
			srcs = append(srcs, src)
		}
	}
	if rad != nil {
		for _, src := range rad.Artifacts {
			compile(src)
		}
	}
	for _, ch := range d.Changes {
		switch {
		case ch.Delete && isTopLevel(ch.Path):
			if _, err := v.ReadFile(ArtifactPath(ch.Path)); err == nil {
				stale = append(stale, ArtifactPath(ch.Path))
			}
		case strings.HasSuffix(ch.Path, ".json"):
			src := strings.TrimSuffix(ch.Path, ".json") + ".cconf"
			if _, err := v.ReadFile(src); err == nil {
				compile(src)
			}
		}
	}
	if len(srcs) > 0 {
		sort.Strings(srcs)
		results, err := p.Engine.CompileAll(v, srcs)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			artifact := ArtifactPath(res.Path)
			if have, err := v.ReadFile(artifact); err != nil || !bytes.Equal(have, res.JSON) {
				stale = append(stale, artifact)
			}
		}
	}
	sort.Strings(stale)
	return stale, nil
}
