// Package depgraph implements the Dependency Service (§3.1, Figure 3).
//
// Configerator "expresses configuration dependency as source code
// dependency, similar to the include statement in a C++ program" and
// "automatically extracts dependencies from source code without the need to
// manually edit a makefile". This package maintains that graph: each config
// source file's import list is extracted by the CDL parser, an inverted
// index maps every file to its importers, and when a file changes the
// transitive importer set is the recompile set — the paper's example being
// a change to app_port.cinc recompiling both app.cconf and firewall.cconf
// in one commit.
package depgraph

import (
	"fmt"
	"sort"

	"configerator/internal/cdl"
)

// Graph tracks config source dependencies.
type Graph struct {
	// deps maps file -> its direct imports.
	deps map[string][]string
	// rdeps maps file -> set of direct importers (the inverted index).
	rdeps map[string]map[string]bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		deps:  make(map[string][]string),
		rdeps: make(map[string]map[string]bool),
	}
}

// SetImports records (replacing) a file's direct imports.
func (g *Graph) SetImports(file string, imports []string) {
	for _, old := range g.deps[file] {
		delete(g.rdeps[old], file)
	}
	cp := make([]string, len(imports))
	copy(cp, imports)
	g.deps[file] = cp
	for _, dep := range imports {
		set, ok := g.rdeps[dep]
		if !ok {
			set = make(map[string]bool)
			g.rdeps[dep] = set
		}
		set[file] = true
	}
}

// ExtractAndSet parses the source, extracts its imports, and records them.
func (g *Graph) ExtractAndSet(file string, src []byte) error {
	imports, err := cdl.ScanImports(file, src)
	if err != nil {
		return fmt.Errorf("depgraph: extracting %s: %w", file, err)
	}
	g.SetImports(file, imports)
	return nil
}

// Remove deletes a file from the graph (it keeps its reverse entries for
// files that still import it — those imports are now dangling and will fail
// at compile time, which is the correct failure mode).
func (g *Graph) Remove(file string) {
	for _, old := range g.deps[file] {
		delete(g.rdeps[old], file)
	}
	delete(g.deps, file)
}

// Dependents returns every file that transitively imports any of the
// changed files — the recompile set (excluding the changed files
// themselves).
func (g *Graph) Dependents(changed ...string) []string {
	seen := make(map[string]bool)
	var frontier []string
	for _, c := range changed {
		frontier = append(frontier, c)
	}
	changedSet := make(map[string]bool, len(changed))
	for _, c := range changed {
		changedSet[c] = true
	}
	for len(frontier) > 0 {
		f := frontier[0]
		frontier = frontier[1:]
		for imp := range g.rdeps[f] {
			if !seen[imp] {
				seen[imp] = true
				frontier = append(frontier, imp)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		if !changedSet[f] {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// RecompileSet returns the files that must be recompiled when the given
// files change: the changed files themselves (if known to the graph or
// matching the keep filter) plus all transitive importers, filtered by
// keep (typically "is a top-level .cconf"). Order is deterministic.
func (g *Graph) RecompileSet(changed []string, keep func(string) bool) []string {
	set := make(map[string]bool)
	for _, c := range changed {
		if keep == nil || keep(c) {
			set[c] = true
		}
	}
	for _, d := range g.Dependents(changed...) {
		if keep == nil || keep(d) {
			set[d] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Files returns every file with recorded imports, sorted.
func (g *Graph) Files() []string {
	out := make([]string, 0, len(g.deps))
	for f := range g.deps {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
