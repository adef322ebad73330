package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"configerator/internal/cdl"
)

// Driver loads the transitive import closure of a set of roots and runs a
// suite of analyzers over every module in it, in parallel.
//
// Each module is analyzed exactly once per Run, no matter how many roots
// reach it — linting the 50 dependents of a shared .cinc analyzes (and
// parses) the .cinc once, not 50 times. When an Engine is attached, the
// driver parses through the engine's content-hash parse cache, so a lint
// pass immediately before or after a compile of the same tree re-parses
// nothing at all.
type Driver struct {
	// Engine, when non-nil, supplies the shared content-hash parse cache.
	Engine *cdl.Engine
	// FS resolves source paths (repository-relative, like the compiler).
	FS cdl.FileSystem
	// DeprecatedSitevars maps deprecated sitevar names to replacement
	// notes for the deprecated-sitevar analyzer.
	DeprecatedSitevars map[string]string
}

// NewDriver returns a driver over fs reusing eng's parse cache (eng may be
// nil) with the full registered analyzer suite.
func NewDriver(eng *cdl.Engine, fs cdl.FileSystem) *Driver {
	return &Driver{Engine: eng, FS: fs}
}

// loadEntry is one module slot during the concurrent closure walk.
type loadEntry struct {
	mod  *cdl.Module
	err  error
	done chan struct{}
}

// Run lints the roots and every module reachable from them. The returned
// diagnostics are sorted by position; unreadable or unparsable files
// surface as Error diagnostics (analyzer "parse"), not as a Run error —
// a Run error is reserved for driver misconfiguration.
func (d *Driver) Run(roots []string) ([]Diagnostic, error) {
	if d.FS == nil {
		return nil, fmt.Errorf("analysis: driver has no filesystem")
	}
	workers := runtime.GOMAXPROCS(0) // bounds load and analysis parallelism
	analyzers := Analyzers()

	// ---- Phase 1: load the transitive closure, concurrently. ----
	var (
		mu      sync.Mutex
		entries = make(map[string]*loadEntry)
		wg      sync.WaitGroup
		sem     = make(chan struct{}, workers)
	)
	var load func(path string)
	load = func(path string) {
		mu.Lock()
		if _, ok := entries[path]; ok {
			mu.Unlock()
			return
		}
		ent := &loadEntry{done: make(chan struct{})}
		entries[path] = ent
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(ent.done)
			sem <- struct{}{}
			src, err := d.FS.ReadFile(path)
			if err != nil {
				<-sem
				ent.err = err
				return
			}
			var mod *cdl.Module
			if d.Engine != nil {
				mod, err = d.Engine.ParseCached(path, src)
			} else {
				mod, err = cdl.Parse(path, string(src))
			}
			<-sem
			if err != nil {
				ent.err = err
				return
			}
			ent.mod = mod
			for _, imp := range mod.Imports {
				load(imp.Path)
			}
		}()
	}
	rootSet := make(map[string]bool, len(roots))
	for _, r := range roots {
		rootSet[r] = true
		load(r)
	}
	wg.Wait()

	// ---- Phase 2: convert load failures to diagnostics; build facts. ----
	var diags []Diagnostic
	mods := make(map[string]*cdl.Module)
	for path, ent := range entries {
		if ent.mod != nil {
			mods[path] = ent.mod
		}
	}
	// A file with a positioned parse error reports at that position; an
	// unreadable file reports at every site that demanded it (import
	// statements, or line 1 of the root itself).
	reported := make(map[string]bool)
	for path, ent := range entries {
		if ent.err == nil {
			continue
		}
		if cerr, ok := ent.err.(*cdl.Error); ok {
			diags = append(diags, Diagnostic{
				Pos: cerr.Pos, End: cerr.Pos,
				Severity: Error, Analyzer: "parse", Message: cerr.Msg,
			})
			reported[path] = true
			continue
		}
		if rootSet[path] {
			p := cdl.Pos{File: path, Line: 1, Col: 1}
			diags = append(diags, Diagnostic{
				Pos: p, End: p,
				Severity: Error, Analyzer: "parse",
				Message: fmt.Sprintf("cannot load %s: %v", path, ent.err),
			})
			reported[path] = true
		}
	}
	for _, mod := range mods {
		for _, imp := range mod.Imports {
			ent := entries[imp.Path]
			if ent == nil || ent.err == nil || reported[imp.Path] {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos: imp.PathPos, End: imp.PathEnd,
				Severity: Error, Analyzer: "parse",
				Message: fmt.Sprintf("cannot load import %q: %v", imp.Path, ent.err),
			})
		}
	}

	builder := newFactBuilder(mods)
	uni := &Universe{
		Modules:   make(map[string]*ModuleFacts, len(mods)),
		ASTs:      mods,
		Importers: make(map[string][]string),
	}
	for r := range rootSet {
		uni.Roots = append(uni.Roots, r)
	}
	sort.Strings(uni.Roots)
	paths := make([]string, 0, len(mods))
	for path := range mods {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		uni.Modules[path] = builder.facts(path)
		for _, imp := range mods[path].Imports {
			uni.Importers[imp.Path] = append(uni.Importers[imp.Path], path)
		}
	}
	for _, importers := range uni.Importers {
		sort.Strings(importers)
	}

	// ---- Phase 3: run every analyzer over every module, in parallel. ----
	var dmu sync.Mutex
	work := make(chan string)
	var awg sync.WaitGroup
	for i := 0; i < workers; i++ {
		awg.Add(1)
		go func() {
			defer awg.Done()
			for path := range work {
				for _, a := range analyzers {
					pass := &Pass{
						Analyzer:           a,
						Path:               path,
						Module:             mods[path],
						Facts:              uni.Modules[path],
						Universe:           uni,
						DeprecatedSitevars: d.DeprecatedSitevars,
						mu:                 &dmu,
						diags:              &diags,
					}
					a.Run(pass)
				}
			}
		}()
	}
	for _, path := range paths {
		work <- path
	}
	close(work)
	awg.Wait()

	SortDiagnostics(diags)
	return diags, nil
}
