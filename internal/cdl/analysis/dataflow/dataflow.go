// Package dataflow is the whole-repo semantic analysis layer behind the
// configrisk gates: provenance (which origin sites can alter each artifact
// field), blast radius (which artifacts, consumer bindings, and canary
// domains a candidate diff can reach), and determinacy (no two unordered
// overlay paths may assign conflicting values to the same field).
//
// The paper's defense ladder (§4) leans on validators, review, and canary,
// but its §6.2/§8 incident data show the worst outages come from *valid*
// changes whose reach nobody computed — the 727-author sitevar, the
// dormant config suddenly edited. Rehearsal-style static verification
// closes that gap: every query here is answered without evaluating a
// single config, from per-module summaries memoized by content hash so a
// warm whole-repo pass is incremental exactly like cdl.Engine.
//
// The three passes share one substrate: an Index builds (or reuses) one
// summary per module, keyed by the Merkle hash of the module's import
// closure, and a Repo is an immutable snapshot of those summaries for one
// view of the repository.
//
// A snapshot is derived forward. Repo.Derive takes the paths at which the
// new view differs and reads, lexes and hashes only those. Their cone — the
// changed files plus their transitive importers, the only files whose
// closure key can move — is re-keyed from the content hash and import list
// the snapshot keeps per file, which reads nothing, and re-summarized
// through the memo, which rebuilds (and so parses) only what it has not
// seen: the Index counters provenance.memo / provenance.recompute make that
// observable and testable. Everything outside the cone — summaries, their
// reach sets, and the entries of the two inverse indexes
// (file → direct importers, external input → files reading it) — is shared
// with the parent snapshot through persistent maps, so a derivation costs
// the cone and a parent snapshot keeps answering for its own view. Radius
// is a walk up those indexes from what changed. Index.Analyze is the
// derivation from the empty snapshot, where every file is new.
//
// A snapshot also records every file it is given with its scanned imports,
// whether or not a root reaches it, and keeps the inverse of those imports
// as a third index: the import graph Dependents walks. The pipeline's head
// snapshot is given every source file, so that graph is its Dependency
// Service (§3.1).
//
// The one limit: a file imported by everything has the whole repository as
// its cone, and editing it costs a whole-repository pass (of memo lookups,
// and of rebuilds where the edit changed a summary). Two smaller linear
// costs remain: adding or dropping a root copies the sorted Roots slice, and
// a file that gains or loses an importer has its importer list copied.
package dataflow

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"configerator/internal/cdl"
	"configerator/internal/obs"
)

// OriginKind classifies where a config value can come from.
type OriginKind string

// Origin kinds. Sitevar, gatekeeper, and env origins are recognized
// syntactically — `sitevar("name")`-style calls and imports under the
// "sitevars/" / "gatekeeper/" conventions — matching the deprecated-sitevar
// analyzer; there are no such builtins in the evaluator.
const (
	// OriginModule: a source file whose declarations feed the value.
	OriginModule OriginKind = "module"
	// OriginSitevar: a sitevar("name") call or a sitevars/<name>.cinc import.
	OriginSitevar OriginKind = "sitevar"
	// OriginGatekeeper: a gatekeeper("project") call or gatekeeper/ import.
	OriginGatekeeper OriginKind = "gatekeeper"
	// OriginEnv: an env("NAME") call.
	OriginEnv OriginKind = "env"
)

// SiteRef is a JSON-friendly source position.
type SiteRef struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func siteRef(p cdl.Pos) SiteRef { return SiteRef{File: p.File, Line: p.Line, Col: p.Col} }

// String renders file:line:col.
func (s SiteRef) String() string { return fmt.Sprintf("%s:%d:%d", s.File, s.Line, s.Col) }

// Origin is one site whose change can alter a value: a module file, or an
// external input (sitevar / gatekeeper gate / env var) referenced from one.
type Origin struct {
	Kind OriginKind `json:"kind"`
	// Name is the sitevar/gate/env name; for OriginModule it is the file path.
	Name string `json:"name"`
	// Site is a representative source position (the declaration or call).
	Site SiteRef `json:"site"`
}

// key dedups origins: one entry per (kind, name), first site kept.
func (o Origin) key() string { return string(o.Kind) + "\x00" + o.Name }

// String renders `module path (site)` or `sitevar "name" (site)`.
func (o Origin) String() string {
	if o.Kind == OriginModule {
		return fmt.Sprintf("module %s (%s)", o.Name, o.Site)
	}
	return fmt.Sprintf("%s %q (%s)", o.Kind, o.Name, o.Site)
}

// ConsumerSite is one static consumer binding: a sitevar/gatekeeper/env
// reference site in a module — the compile-time analogue of a runtime
// gatekeeper.Bind subscription.
type ConsumerSite struct {
	Kind OriginKind `json:"kind"`
	Name string     `json:"name"`
	Site SiteRef    `json:"site"`
}

// String renders `site: kind "name"`.
func (c ConsumerSite) String() string {
	return fmt.Sprintf("%s: %s %q", c.Site, c.Kind, c.Name)
}

// Counter names (read through Index.Counters).
const (
	counterMemo      = "provenance.memo"
	counterRecompute = "provenance.recompute"
	counterRadius    = "radius.query"
	// counterVisited counts the files radius queries walked: the changed
	// files, the files holding a matched consumer, and the transitive
	// importers of both.
	counterVisited = "radius.visited"
)

// maxSummaries bounds the content-keyed summary memo. The cache is cleared
// wholesale when it overflows — content hashes make stale entries
// unreachable anyway, this only reclaims memory.
const maxSummaries = 16384

// Index owns the memoized per-module summaries. It is long-lived (one per
// pipeline, like cdl.Engine): summaries are keyed by the Merkle hash of
// each module's import closure, so snapshots of different overlay views
// rebuild a summary once between them.
type Index struct {
	engine   *cdl.Engine
	counters *obs.Counters

	mu   sync.Mutex
	memo map[string]*summary
}

// NewIndex returns an index sharing the engine's parse cache. A nil engine
// is allowed (the CLI's one-shot mode): parsing is then uncached.
func NewIndex(engine *cdl.Engine) *Index {
	return &Index{
		engine:   engine,
		counters: obs.NewCounters(),
		memo:     make(map[string]*summary),
	}
}

// Counters exposes the memo/recompute/radius counters.
func (ix *Index) Counters() *obs.Counters { return ix.counters }

func (ix *Index) count(name string, n int) { ix.counters.Add(name, int64(n)) }

func (ix *Index) lookup(key string) *summary {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.memo[key]
}

func (ix *Index) store(key string, s *summary) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.memo) >= maxSummaries {
		ix.memo = make(map[string]*summary)
	}
	ix.memo[key] = s
}

// Repo is one analysis snapshot: the summary of every root and of every
// file a root's import closure reaches (its universe), under a fixed
// file-system view. A snapshot is immutable. Query methods (Why,
// Provenance, Radius, DeterminacyFor) are read-only and safe for concurrent
// use, also beside a Derive from the same snapshot.
type Repo struct {
	ix *Index
	// Roots are the analyzed artifact sources, sorted.
	Roots []string
	// Errors records modules that failed to read or parse (analysis
	// continues with a stub for them; configlint reports the parse error).
	Errors []string

	// files holds every file the snapshot was given, the universe with
	// summaries. The two inverse indexes over the universe let Radius walk
	// up from what changed: importers maps a file to the files whose summary
	// imports it directly, consumers an external-input key to the files
	// holding a reference site of it. importedBy is the import graph of
	// every file: a file to the files whose scanned imports name it, which
	// is what Dependents walks. Their lists are sets in no particular order.
	files      pmap[*fileRec]
	importers  pmap[[]string]
	importedBy pmap[[]string]
	consumers  pmap[[]string]
}

// Analyze summarizes every root and its import closure under fs: the
// derivation from the empty snapshot, in which every file is new. Summaries
// for closures the index has seen are reused from its memo.
func (ix *Index) Analyze(fs cdl.FileSystem, roots []string) *Repo {
	return (&Repo{ix: ix}).Derive(fs, nil, roots, nil)
}

// sum returns path's summary, nil outside the universe.
func (r *Repo) sum(path string) *summary {
	if rc, ok := r.files.get(path); ok {
		return rc.sum
	}
	return nil
}

func (r *Repo) isRoot(path string) bool {
	_, ok := slices.BinarySearch(r.Roots, path)
	return ok
}

// Dependents returns every file that transitively imports one of paths,
// rooted or not, without paths themselves, sorted: the Dependency Service's
// recompile and lint sets (§3.1). A file whose imports cannot be scanned
// has no edges, and a file the view no longer holds keeps its importers.
func (r *Repo) Dependents(paths ...string) []string {
	seen := make(map[string]bool, len(paths))
	for _, path := range paths {
		seen[path] = true
	}
	queue := slices.Clone(paths)
	var out []string
	for len(queue) > 0 {
		path := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		importers, _ := r.importedBy.get(path)
		for _, imp := range importers {
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
				out = append(out, imp)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Imports returns the direct imports the lexer scanned from path, nil when
// the snapshot holds no such file or its imports cannot be scanned.
func (r *Repo) Imports(path string) []string {
	if rc, ok := r.files.get(path); ok {
		return rc.imports
	}
	return nil
}

// observeRadius counts one radius query and the files it visited.
func (ix *Index) observeRadius(visited int) {
	ix.count(counterRadius, 1)
	ix.count(counterVisited, visited)
}

// extKinds maps the conventional external-input call names to origin kinds.
var extKinds = map[string]OriginKind{
	"sitevar":    OriginSitevar,
	"gatekeeper": OriginGatekeeper,
	"env":        OriginEnv,
}

// pathOrigin maps a source path under the sitevars/ or gatekeeper/
// conventions to the external input it carries ("" when neither).
func pathOrigin(path string) (OriginKind, string) {
	if rest, ok := strings.CutPrefix(path, "sitevars/"); ok {
		return OriginSitevar, trimExt(rest)
	}
	if rest, ok := strings.CutPrefix(path, "gatekeeper/"); ok {
		return OriginGatekeeper, trimExt(rest)
	}
	return "", ""
}

func trimExt(p string) string {
	if i := strings.LastIndexByte(p, '.'); i > 0 {
		return p[:i]
	}
	return p
}
