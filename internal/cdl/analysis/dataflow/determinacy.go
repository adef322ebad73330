package dataflow

import (
	"fmt"
	"sort"

	"configerator/internal/cdl/analysis"
)

// DeterminacyAnalyzer names pass 3's diagnostics. The check is
// deliberately NOT in the analysis registry: it needs whole-repo
// summaries, not a single module pass, and it gates the landing strip
// through the dataflow API instead.
const DeterminacyAnalyzer = "determinacy"

// Determinacy is pass 3: the Rehearsal-style check that artifact output
// cannot depend on overlay or shard/land order. Two assignment sites
// conflict when they bind the same top-level name that flows into an
// artifact's export, with values not provably equal, from modules neither
// of which imports the other — then nothing in the language orders them,
// and reordering imports (or landing repo shards in a different order, the
// bug PR 3's orderShards fixed ad hoc) silently flips the artifact.
// The same rule applies to whole-module exports: two unordered modules
// exporting into the same artifact conflict unless the artifact's root
// overrides them with its own export.
//
// Diagnostics are Error severity and name both conflicting sites.
func (r *Repo) Determinacy() []analysis.Diagnostic {
	return r.DeterminacyFor(r.Roots)
}

// DeterminacyFor restricts pass 3 to the given artifact roots (unknown
// roots are skipped). The landing strip uses it to check exactly the
// artifacts a diff's blast radius reaches, so a pre-existing conflict
// elsewhere in the repo cannot block an unrelated change.
func (r *Repo) DeterminacyFor(roots []string) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	reported := make(map[string]bool)
	report := func(d analysis.Diagnostic) {
		k := d.Pos.String() + "\x00" + d.Message
		if !reported[k] {
			reported[k] = true
			out = append(out, d)
		}
	}

	for _, root := range roots {
		s := r.sum(root)
		if s == nil || len(s.exports) == 0 {
			continue
		}
		win := s.exports[len(s.exports)-1]

		// Export conflicts: the winning exporter must be ordered after
		// every other exporting module, unless the root itself exports
		// (the root always executes last, so its export wins on every
		// land order).
		if win.path != root {
			for _, e := range s.exports[:len(s.exports)-1] {
				if e.path == win.path || e.path == root {
					continue
				}
				if e.fp != "" && e.fp == win.fp {
					continue
				}
				if r.ordered(e.path, win.path) {
					continue
				}
				report(analysis.Diagnostic{
					Pos: win.pos, End: win.end, Severity: analysis.Error,
					Analyzer: DeterminacyAnalyzer,
					Message: fmt.Sprintf(
						"artifact %s takes its export from %s, but %s also exports and neither module imports the other; the output depends on import/land order",
						root, win.pos, e.pos),
					SuggestedFix: "export from the artifact's .cconf, or make one overlay import the other",
				})
			}
		}

		// Name conflicts, restricted to names that actually flow into the
		// winning export (a conflicting name nothing reads cannot alter
		// the artifact).
		for _, name := range r.exportDeps(s, win) {
			b := s.bindings[name]
			if b == nil || len(b.sites) < 2 {
				continue
			}
			winSite := b.win()
			for i := range b.sites[:len(b.sites)-1] {
				st := &b.sites[i]
				if st.path == winSite.path {
					continue // same module: statement order decides
				}
				if st.fp != "" && st.fp == winSite.fp {
					continue // provably the same value either way
				}
				if r.ordered(st.path, winSite.path) {
					continue // one imports the other: order is fixed
				}
				report(analysis.Diagnostic{
					Pos: winSite.pos, End: winSite.end, Severity: analysis.Error,
					Analyzer: DeterminacyAnalyzer,
					Message: fmt.Sprintf(
						"%q is assigned conflicting values at %s and %s, and neither module imports the other; artifact %s depends on import/land order",
						name, winSite.pos, st.pos, root),
					SuggestedFix: "give the overlays an import order, or split the name",
				})
			}
		}
	}
	analysis.SortDiagnostics(out)
	return out
}

// ordered reports whether one module's execution is ordered relative to
// the other's by the import graph (either closure contains the other).
func (r *Repo) ordered(a, b string) bool {
	if sa := r.sum(a); sa != nil && sa.reach[b] {
		return true
	}
	if sb := r.sum(b); sb != nil && sb.reach[a] {
		return true
	}
	return false
}

// exportDeps returns every top-level name the export transitively
// references, sorted.
func (r *Repo) exportDeps(s *summary, win exportRec) []string {
	visited := make(map[string]bool)
	queue := append([]string{}, win.refs...)
	for _, fr := range win.fields {
		queue = append(queue, fr.refs...)
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if visited[name] {
			continue
		}
		visited[name] = true
		if b := s.bindings[name]; b != nil {
			for _, site := range b.sites {
				queue = append(queue, site.refs...)
			}
		}
	}
	out := make([]string, 0, len(visited))
	for name := range visited {
		if s.bindings[name] != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
