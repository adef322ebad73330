package cdl

// The shared compilation engine (§3.1 commit path). The seed compiler
// re-parsed and re-evaluated the entire transitive import graph from
// scratch for every Compile call, so recompiling the dependents of a
// shared .cinc was O(dependents × full module graph). The engine memoizes
// the deterministic parts of that work across Compile calls:
//
//   - parse cache: (path, source-hash) → AST, so a .cinc imported by N
//     configs parses once, not N times;
//   - module cache: Merkle hash of a module's transitive source closure →
//     its evaluated environment, registered schemas, and replayable module
//     effects. Content-hash keys self-invalidate — editing any file in the
//     closure changes the key — and InvalidatePaths evicts the dead
//     entries precisely using the Dependency Service's affected set;
//   - result cache: root closure hash → finished *Result, making the CI
//     double-compile determinism check nearly free;
//   - single-flight module builds, so concurrent compiles that share a
//     dependency evaluate it once instead of once per worker.
//
// Modules that fail the static cache-safety analysis (purity.go) are
// evaluated fresh on every compile — memoization never changes observable
// semantics, it only skips provably repeatable work. Compile errors are
// never cached, so error messages are always produced by a fresh
// evaluation and are byte-identical to the seed compiler's.

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"configerator/internal/stats"
)

// Cache bounds; exceeding a bound evicts the least-recently-used quarter of
// the cache.
const (
	maxParseEntries  = 4096
	maxModuleEntries = 4096
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

	counters *stats.Counters

	mu      sync.Mutex
	parse   map[string]*parseEntry
	modules map[string]*moduleEntry
	results map[string]*resultEntry
	flights map[string]*flight
	tick    int64
}

// flight is one in-progress module build; concurrent requests for the same
// closure key wait on done instead of duplicating the evaluation.
type flight struct {
	done chan struct{}
	ent  *moduleEntry // nil if the module turned out uncacheable
	err  error
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		counters: stats.NewCounters(),
		parse:    make(map[string]*parseEntry),
		modules:  make(map[string]*moduleEntry),
		results:  make(map[string]*resultEntry),
		flights:  make(map[string]*flight),
	}
}

// Counters exposes the engine's cache hit/miss/eviction counters.
func (e *Engine) Counters() *stats.Counters { return e.counters }

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

// ---- hashing ----

// keyInfo is the hashed view of one source file under one FileSystem: its
// content, scanned direct imports, transitive closure, and Merkle closure
// key. err records why a key could not be computed (unreadable file,
// lexical error, import cycle); such paths compile uncached.
type keyInfo struct {
	src     []byte
	key     string
	imports []string
	closure []string
	err     error
}

// hasher computes closure keys for one FileSystem view, memoized per path.
// It is safe for concurrent use; the mutex serializes the recursive walk,
// which is cheap (reads + sha256, no parsing or evaluation).
type hasher struct {
	eng  *Engine
	fs   FileSystem
	mu   sync.Mutex
	memo map[string]*keyInfo
}

func newHasher(eng *Engine, fs FileSystem) *hasher {
	return &hasher{eng: eng, fs: fs, memo: make(map[string]*keyInfo)}
}

// info returns the keyInfo for path, computing (and memoizing) the whole
// transitive closure on first use.
func (h *hasher) info(path string) *keyInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.walk(path, make(map[string]bool))
}

func (h *hasher) walk(path string, visiting map[string]bool) *keyInfo {
	if ki, ok := h.memo[path]; ok {
		return ki
	}
	if visiting[path] {
		// Genuine import cycle: every path on the cycle is permanently
		// unkeyable, so memoizing the error is correct.
		ki := &keyInfo{err: fmt.Errorf("cdl: import cycle through %q", path)}
		h.memo[path] = ki
		return ki
	}
	ki := &keyInfo{}
	src, err := h.fs.ReadFile(path)
	if err != nil {
		ki.err = err
		h.memo[path] = ki
		return ki
	}
	ki.src = src
	imports, err := ScanImports(path, src)
	if err != nil {
		ki.err = err
		h.memo[path] = ki
		return ki
	}
	ki.imports = imports

	visiting[path] = true
	sum := sha256.Sum256(src)
	hash := sha256.New()
	hash.Write([]byte("cdl-module\x00"))
	hash.Write([]byte(path))
	hash.Write([]byte{0})
	hash.Write(sum[:])
	closure := map[string]bool{path: true}
	for _, imp := range imports {
		sub := h.walk(imp, visiting)
		if sub.err != nil && ki.err == nil {
			ki.err = sub.err
		}
		hash.Write([]byte{0})
		hash.Write([]byte(sub.key))
		for _, p := range sub.closure {
			closure[p] = true
		}
		closure[imp] = true
	}
	delete(visiting, path)

	ki.closure = make([]string, 0, len(closure))
	for p := range closure {
		ki.closure = append(ki.closure, p)
	}
	sort.Strings(ki.closure)
	if ki.err == nil {
		ki.key = fmt.Sprintf("%x", hash.Sum(nil))
	}
	h.memo[path] = ki
	return ki
}

// ---- parse cache ----

// parseModule parses src (content-addressed, memoized). Parse errors are
// cached too: the same bytes always produce the same error.
func (e *Engine) parseModule(path string, src []byte) (*Module, error) {
	if e.CacheDisabled {
		return Parse(path, string(src))
	}
	sum := sha256.Sum256(src)
	key := path + "\x00" + string(sum[:])
	e.mu.Lock()
	if pe, ok := e.parse[key]; ok {
		pe.lastUse = e.nextTick()
		e.counters.Add("parse.hit", 1)
		e.mu.Unlock()
		return pe.mod, pe.err
	}
	e.counters.Add("parse.miss", 1)
	e.mu.Unlock()

	mod, err := Parse(path, string(src))
	pe := &parseEntry{mod: mod, err: err}
	if err == nil {
		pe.safe = astCacheSafe(mod)
		pe.structRefs = collectStructRefs(mod)
	}
	e.mu.Lock()
	pe.lastUse = e.nextTick()
	e.parse[key] = pe
	e.counters.Add("evict.parse", int64(evictOldest(e.parse, maxParseEntries,
		func(p *parseEntry) int64 { return p.lastUse }, func(k string) { delete(e.parse, k) })))
	e.mu.Unlock()
	return mod, err
}

// ParseCached parses src through the engine's content-addressed parse
// cache: the same (path, bytes) pair is parsed once no matter how many
// callers ask. This is the entry point the configlint driver uses, so a
// lint of N dependents sharing a .cinc parses the shared file exactly once
// — and a lint run immediately after a compile (or vice versa) reuses the
// other's parse work entirely.
func (e *Engine) ParseCached(path string, src []byte) (*Module, error) {
	return e.parseModule(path, src)
}

// parseMeta reports the cached cache-safety verdict and struct-literal
// type names for already-parsed content (false/nil when unknown).
func (e *Engine) parseMeta(path string, src []byte) (bool, []string) {
	sum := sha256.Sum256(src)
	key := path + "\x00" + string(sum[:])
	e.mu.Lock()
	defer e.mu.Unlock()
	if pe, ok := e.parse[key]; ok && pe.err == nil {
		return pe.safe, pe.structRefs
	}
	return false, nil
}

// ---- module cache ----

// module returns the cached module entry for key (counting hit/miss), or
// nil.
func (e *Engine) module(key string) *moduleEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.modules[key]
	if !ok {
		e.counters.Add("module.miss", 1)
		return nil
	}
	ent.lastUse = e.nextTick()
	if ent.uncacheable {
		e.counters.Add("module.uncacheable", 1)
	} else {
		e.counters.Add("module.hit", 1)
	}
	return ent
}

// peekModule is module without counters, for internal bookkeeping.
func (e *Engine) peekModule(key string) *moduleEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.modules[key]
}

func (e *Engine) storeModule(ent *moduleEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent.lastUse = e.nextTick()
	e.modules[ent.key] = ent
	e.counters.Add("evict.module", int64(evictOldest(e.modules, maxModuleEntries,
		func(m *moduleEntry) int64 { return m.lastUse }, func(k string) { delete(e.modules, k) })))
}

// storeUncacheable records a negative entry so future compiles skip the
// build attempt for this closure. It never overwrites a real entry (an
// activation that fell back for context reasons must not poison the cache
// for other compiles).
func (e *Engine) storeUncacheable(key, path string, closure []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.modules[key]; ok {
		return
	}
	e.modules[key] = &moduleEntry{key: key, path: path, uncacheable: true, closure: closure, lastUse: e.nextTick()}
	e.counters.Add("evict.module", int64(evictOldest(e.modules, maxModuleEntries,
		func(m *moduleEntry) int64 { return m.lastUse }, func(k string) { delete(e.modules, k) })))
}

// buildModule evaluates one cacheable module in an isolated load state and
// publishes the entry, single-flighted per closure key so concurrent
// compiles sharing a dependency evaluate it exactly once. Returns
// (nil, nil) when the module turns out uncacheable.
func (e *Engine) buildModule(h *hasher, path string, info *keyInfo) (*moduleEntry, error) {
	e.mu.Lock()
	if ent, ok := e.modules[info.key]; ok { // raced with another builder
		e.mu.Unlock()
		if ent.uncacheable {
			return nil, nil
		}
		return ent, nil
	}
	if f, ok := e.flights[info.key]; ok {
		e.mu.Unlock()
		<-f.done
		return f.ent, f.err
	}
	f := &flight{done: make(chan struct{})}
	e.flights[info.key] = f
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.flights, info.key)
		e.mu.Unlock()
		close(f.done)
	}()

	// Fast path: if the module's own AST is already known-unsafe, skip the
	// evaluation entirely.
	if _, err := e.parseModule(path, info.src); err != nil {
		f.err = err
		return nil, err
	}
	if safe, _ := e.parseMeta(path, info.src); !safe {
		e.storeUncacheable(info.key, path, info.closure)
		return nil, nil
	}

	e.counters.Add("module.build", 1)
	st := newLoadState(e, h.fs, h)
	st.building = info.key
	if _, err := st.load(path); err != nil {
		f.err = err
		return nil, err
	}
	// evalModule stored either the real entry or an uncacheable marker
	// (when a transitive dependency was unsafe).
	ent := e.peekModule(info.key)
	if ent == nil || ent.uncacheable {
		return nil, nil
	}
	f.ent = ent
	return ent, nil
}

// ---- result cache ----

func (e *Engine) lookupResult(key string) *Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	if re, ok := e.results[key]; ok {
		re.lastUse = e.nextTick()
		e.counters.Add("result.hit", 1)
		return cloneResult(re.res)
	}
	e.counters.Add("result.miss", 1)
	return nil
}

func (e *Engine) storeResult(key string, res *Result, closure []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.results[key] = &resultEntry{res: cloneResult(res), closure: closure, lastUse: e.nextTick()}
	e.counters.Add("evict.result", int64(evictOldest(e.results, maxResultEntries,
		func(r *resultEntry) int64 { return r.lastUse }, func(k string) { delete(e.results, k) })))
}

// nextTick must be called with e.mu held.
func (e *Engine) nextTick() int64 {
	e.tick++
	return e.tick
}

// ---- invalidation ----

// InvalidatePaths evicts every module and result entry whose transitive
// source closure intersects the given paths, plus parse entries for the
// paths themselves. Content-hash keys mean stale entries can never be hit
// again regardless; invalidation reclaims their memory immediately. The
// pipeline calls this with the Dependency Service's affected set (changed
// files plus all transitive importers) after a change lands.
func (e *Engine) InvalidatePaths(paths ...string) int {
	if len(paths) == 0 {
		return 0
	}
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	touches := func(closure []string) bool {
		for _, p := range closure {
			if set[p] {
				return true
			}
		}
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	dropped := 0
	for k, ent := range e.modules {
		if touches(ent.closure) {
			delete(e.modules, k)
			dropped++
		}
	}
	for k, re := range e.results {
		if touches(re.closure) {
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
	var h *hasher
	if !e.CacheDisabled {
		h = newHasher(e, fs)
	}
	return e.compileOne(fs, h, path)
}

func (e *Engine) compileOne(fs FileSystem, h *hasher, path string) (*Result, error) {
	var info *keyInfo
	if h != nil {
		info = h.info(path)
		if info.err == nil {
			if res := e.lookupResult(info.key); res != nil {
				return res, nil
			}
		}
	}
	st := newLoadState(e, fs, h)
	env, err := st.load(path)
	var res *Result
	if err == nil {
		res, err = st.finish(path, env)
	}
	if st.usedCache && st.global.version > 0 {
		// A module rebound a shared global binding (assigned over a
		// builtin) after cached modules — which bake a pristine global —
		// were spliced in. Redo the whole compile uncached for exact seed
		// semantics; this is the rare escape hatch, not a hot path.
		e.counters.Add("compile.uncached_redo", 1)
		st = newLoadState(e, fs, nil)
		env, err = st.load(path)
		if err != nil {
			return nil, err
		}
		return st.finish(path, env)
	}
	if err != nil {
		return nil, err
	}
	if info != nil && info.err == nil && st.cached[path] && st.global.version == 0 {
		e.storeResult(info.key, res, info.closure)
	}
	return res, nil
}

// CompileAll compiles the given paths (deduplicated) through a bounded
// worker pool, scheduling them in dependency-topological waves so that
// requested paths imported by other requested paths are compiled — and
// cached — first. The returned results cover every path that compiled
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

	var h *hasher
	waves := [][]string{uniq}
	if !e.CacheDisabled {
		h = newHasher(e, fs)
		waves = planWaves(h, uniq)
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	resByPath := make(map[string]*Result, len(uniq))
	errByPath := make(map[string]error)
	var mu sync.Mutex
	for _, wave := range waves {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, p := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(p string) {
				defer wg.Done()
				defer func() { <-sem }()
				res, err := e.compileOne(fs, h, p)
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
	}

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

// planWaves orders the requested paths into dependency-topological waves:
// a path lands in a later wave than any requested path inside its own
// transitive closure. Paths whose closures cannot be hashed (cycles,
// unreadable imports) go in the first wave and surface their errors from a
// fresh compile.
func planWaves(h *hasher, paths []string) [][]string {
	requested := make(map[string]bool, len(paths))
	for _, p := range paths {
		requested[p] = true
	}
	level := make(map[string]int, len(paths))
	var levelOf func(p string, guard map[string]bool) int
	levelOf = func(p string, guard map[string]bool) int {
		if l, ok := level[p]; ok {
			return l
		}
		if guard[p] {
			return 0
		}
		guard[p] = true
		defer delete(guard, p)
		l := 0
		info := h.info(p)
		if info.err == nil {
			for _, dep := range info.closure {
				if dep != p && requested[dep] {
					if dl := levelOf(dep, guard) + 1; dl > l {
						l = dl
					}
				}
			}
		}
		level[p] = l
		return l
	}
	maxLevel := 0
	for _, p := range paths {
		if l := levelOf(p, make(map[string]bool)); l > maxLevel {
			maxLevel = l
		}
	}
	waves := make([][]string, maxLevel+1)
	for _, p := range paths { // paths already sorted: waves stay sorted
		waves[level[p]] = append(waves[level[p]], p)
	}
	out := waves[:0]
	for _, w := range waves {
		if len(w) > 0 {
			out = append(out, w)
		}
	}
	return out
}
