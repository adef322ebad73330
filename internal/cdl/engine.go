package cdl

// The shared compilation engine (§3.1 commit path). The seed compiler
// re-parsed and re-evaluated the entire transitive import graph from
// scratch for every Compile call, so recompiling the dependents of a
// shared .cinc was O(dependents × full module graph). The engine keeps two
// caches across Compile calls:
//
//   - parse cache: (path, source-hash) → AST, single-flighted, so a .cinc
//     imported by N configs parses once, not N times, even when the N
//     compiles run in parallel;
//   - result cache: root path → the finished *Result and the path and
//     SHA-256 of every module its compile loaded, making the CI
//     double-compile determinism check and a re-request of an unchanged
//     config nearly free. A lookup hits only when every listed file reads
//     back unchanged through the caller's view, so editing any file in the
//     closure misses with no invalidation; InvalidatePaths evicts the dead
//     entries by the same lists.
//
// The engine never scans imports: what a compile loads is what its entry
// lists. Every compile that misses the result cache evaluates its whole
// module graph in a fresh global environment, exactly as the seed compiler
// does, so a successful result is a function of the loaded bytes alone and
// is always stored. Compile errors are never cached, so error messages are
// always produced by a fresh evaluation and are byte-identical to the seed
// compiler's.

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"

	"configerator/internal/obs"
)

// Cache bounds; exceeding a bound evicts the least-recently-used quarter of
// the cache.
const (
	maxParseEntries  = 4096
	maxResultEntries = 8192
)

// Engine is a shared, concurrency-safe CDL compilation engine. The zero
// value is not usable; call NewEngine. One engine is meant to live for the
// whole pipeline lifetime and serve every change's compiles — its caches
// are keyed by content, so overlay filesystems with different staged edits
// share one engine safely.
type Engine struct {
	// CacheDisabled turns the engine into the seed serial compiler: no
	// hashing, no caches, no single-flight — the reference the
	// differential tests hold the cached engine to.
	CacheDisabled bool
	// Workers bounds CompileAll's worker pool (default GOMAXPROCS).
	Workers int

	counters *obs.Counters

	mu      sync.Mutex
	parse   map[string]*parseEntry
	results map[string]*resultEntry
	flights map[string]*flight
	tick    int64
}

// flight is one in-progress parse; concurrent requests for the same (path,
// source hash) wait on done instead of parsing the bytes again.
type flight struct {
	done chan struct{}
	mod  *Module
	err  error
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		counters: obs.NewCounters(),
		parse:    make(map[string]*parseEntry),
		results:  make(map[string]*resultEntry),
		flights:  make(map[string]*flight),
	}
}

// Counters exposes the engine's cache hit/miss/eviction counters.
func (e *Engine) Counters() *obs.Counters { return e.counters }

// BatchError is CompileAll's failure report: the error produced by the
// lexicographically first failing path. Its message is exactly the
// underlying compile error's, so callers that surface Engine.Compile
// errors keep byte-identical output.
type BatchError struct {
	// Path is the requested (root) path whose compile failed — not
	// necessarily the file the error is positioned in.
	Path string
	Err  error
}

// Error implements error.
func (b *BatchError) Error() string { return b.Err.Error() }

// Unwrap exposes the underlying compile error.
func (b *BatchError) Unwrap() error { return b.Err }

// ---- parse cache ----

// parseModule parses src, whose SHA-256 is sum (content-addressed,
// memoized). Parse errors are cached too: the same bytes always produce the
// same error. A request that arrives while the same bytes are being parsed
// waits for that parse and counts as a hit, so parallel compiles parse a
// shared file exactly once.
func (e *Engine) parseModule(path string, src []byte, sum [sha256.Size]byte) (*Module, error) {
	if e.CacheDisabled {
		return Parse(path, string(src))
	}
	key := path + "\x00" + string(sum[:])
	e.mu.Lock()
	if pe, ok := e.parse[key]; ok {
		pe.lastUse = e.nextTick()
		e.counters.Add("parse.hit", 1)
		e.mu.Unlock()
		return pe.mod, pe.err
	}
	if f, ok := e.flights[key]; ok {
		e.counters.Add("parse.hit", 1)
		e.mu.Unlock()
		<-f.done
		return f.mod, f.err
	}
	e.counters.Add("parse.miss", 1)
	f := &flight{done: make(chan struct{})}
	e.flights[key] = f
	e.mu.Unlock()

	f.mod, f.err = Parse(path, string(src))
	e.mu.Lock()
	e.parse[key] = &parseEntry{mod: f.mod, err: f.err, lastUse: e.nextTick()}
	delete(e.flights, key)
	e.counters.Add("evict.parse", int64(evictOldest(e.parse, maxParseEntries,
		func(p *parseEntry) int64 { return p.lastUse }, func(k string) { delete(e.parse, k) })))
	e.mu.Unlock()
	close(f.done)
	return f.mod, f.err
}

// ParseCached parses src through the engine's content-addressed parse
// cache: the same (path, bytes) pair is parsed once no matter how many
// callers ask. This is the entry point the configlint driver uses, so a
// lint of N dependents sharing a .cinc parses the shared file exactly once
// — and a lint run immediately after a compile (or vice versa) reuses the
// other's parse work entirely.
func (e *Engine) ParseCached(path string, src []byte) (*Module, error) {
	return e.parseModule(path, src, sha256.Sum256(src))
}

// ---- result cache ----

// lookupResult returns path's cached result when every file its entry lists
// reads back unchanged through fs. The files are read outside the lock; an
// entry is immutable once stored, apart from lastUse.
func (e *Engine) lookupResult(fs FileSystem, path string) *Result {
	e.mu.Lock()
	re := e.results[path]
	e.mu.Unlock()
	if re == nil || !re.current(fs) {
		e.counters.Add("result.miss", 1)
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	re.lastUse = e.nextTick()
	e.counters.Add("result.hit", 1)
	return cloneResult(re.res)
}

func (e *Engine) storeResult(res *Result, files []loadedFile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.results[res.Path] = &resultEntry{res: cloneResult(res), files: files, lastUse: e.nextTick()}
	e.counters.Add("evict.result", int64(evictOldest(e.results, maxResultEntries,
		func(r *resultEntry) int64 { return r.lastUse }, func(k string) { delete(e.results, k) })))
}

// nextTick must be called with e.mu held.
func (e *Engine) nextTick() int64 {
	e.tick++
	return e.tick
}

// ---- invalidation ----

// InvalidatePaths evicts every result entry that lists one of the given
// paths among the modules its compile loaded, plus parse entries for the
// paths themselves. A stale entry can never be hit again regardless (its
// lookup re-reads what it lists); invalidation reclaims its memory
// immediately. The pipeline calls this with the Dependency Service's
// affected set (changed files plus all transitive importers) after a
// change lands.
func (e *Engine) InvalidatePaths(paths ...string) int {
	if len(paths) == 0 {
		return 0
	}
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	touches := func(files []loadedFile) bool {
		for _, f := range files {
			if set[f.path] {
				return true
			}
		}
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	dropped := 0
	for k, re := range e.results {
		if touches(re.files) {
			delete(e.results, k)
			dropped++
		}
	}
	for k, pe := range e.parse {
		if pe.mod != nil && set[pe.mod.Path] {
			delete(e.parse, k)
			dropped++
		}
	}
	e.counters.Add("invalidate", int64(dropped))
	return dropped
}

// ---- compile entry points ----

// Compile compiles a single module through the engine's caches.
func (e *Engine) Compile(fs FileSystem, path string) (*Result, error) {
	if !e.CacheDisabled {
		if res := e.lookupResult(fs, path); res != nil {
			return res, nil
		}
	}
	st := newLoadState(e, fs)
	env, err := st.load(path)
	if err != nil {
		return nil, err
	}
	res, err := st.finish(path, env)
	if err != nil {
		return nil, err
	}
	if !e.CacheDisabled {
		e.storeResult(res, st.loaded)
	}
	return res, nil
}

// CompileAll compiles the given paths (deduplicated) through a bounded
// worker pool. The returned results cover every path that compiled
// successfully, sorted by path; the error (a *BatchError, nil when all
// succeed) is the lexicographically first failing path's error, so output
// is reproducible run-to-run and identical between GOMAXPROCS=1 and
// parallel execution.
func (e *Engine) CompileAll(fs FileSystem, paths []string) ([]*Result, error) {
	uniq := make([]string, 0, len(paths))
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	sort.Strings(uniq)

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	resByPath := make(map[string]*Result, len(uniq))
	errByPath := make(map[string]error)
	var mu sync.Mutex
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, p := range uniq {
		wg.Add(1)
		sem <- struct{}{}
		go func(p string) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := e.Compile(fs, p)
			mu.Lock()
			if err != nil {
				errByPath[p] = err
			} else {
				resByPath[p] = res
			}
			mu.Unlock()
		}(p)
	}
	wg.Wait()

	out := make([]*Result, 0, len(resByPath))
	for _, p := range uniq {
		if res, ok := resByPath[p]; ok {
			out = append(out, res)
		}
	}
	var batchErr error
	for _, p := range uniq { // uniq is sorted: first failing path wins
		if err, ok := errByPath[p]; ok {
			batchErr = &BatchError{Path: p, Err: err}
			break
		}
	}
	return out, batchErr
}
