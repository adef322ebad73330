// Dataflow wiring: the whole-repo analysis (internal/cdl/analysis/dataflow)
// feeds three pipeline surfaces. Stage 1 computes the change's blast radius
// and rejects non-deterministic overlay stacks; stage 2 posts the radius and
// combined risk score onto the review diff; the landing-strip gate runs the
// same analysis on diffs that bypass the pipeline, and additionally refuses
// high-radius direct submits — a change that can flip many artifacts must
// come through the pipeline so the canary covers its radius.
package core

import (
	"fmt"

	"configerator/internal/cdl/analysis"
	"configerator/internal/cdl/analysis/dataflow"
	"configerator/internal/vcs"
)

// DefaultHighRadiusArtifacts is the artifact-count threshold above which a
// change may not land via a direct strip submit (Options.HighRadiusArtifacts
// overrides; negative disables).
const DefaultHighRadiusArtifacts = 25

// catchUp brings the pipeline's two memories of the repositories — the head
// analysis snapshot and the dependency graph — up to the head trees, from
// the Merkle diff between each repository's stamp and its head. A commit
// landed by anyone — a sitevar write, a direct strip submit, this pipeline's
// own shard — is picked up without being announced. Submit and the strip
// gate run it before they ask either memory a question.
func (p *Pipeline) catchUp() {
	var live, gone []string
	for _, repo := range p.Repos.Repos() {
		tree := repo.HeadTree()
		for _, path := range vcs.ChangedPaths(p.headTrees[repo], tree) {
			if !isSource(path) {
				continue
			}
			data, err := repo.ReadFile(path)
			if err != nil { // it left the tree
				gone = append(gone, path)
				p.Deps.Remove(path)
				continue
			}
			live = append(live, path)
			if p.Deps.ExtractAndSet(path, data) != nil {
				// Its imports cannot be read: no edges, as in a graph
				// built cold over this head.
				p.Deps.Remove(path)
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
// p.cleared around strip.Submit).
func (p *Pipeline) gate(d *vcs.Diff) error {
	p.catchUp()
	_, _, rad, err := p.analyze(p.viewOfDiff(d))
	if err != nil {
		return fmt.Errorf("landing strip: %w", err)
	}
	if !p.cleared[d] && p.highRadius(rad) {
		return fmt.Errorf("%w: change reaches %d artifacts (threshold %d); land it through the pipeline so the canary covers the radius",
			ErrHighRadius, len(rad.Artifacts), p.highRadiusAt)
	}
	return nil
}
