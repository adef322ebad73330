package cdl

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// FileSystem is the source tree the compiler reads modules from. In
// production flows it is backed by a vcs working copy; tests use MapFS.
type FileSystem interface {
	ReadFile(path string) ([]byte, error)
}

// MapFS is an in-memory FileSystem.
type MapFS map[string]string

// ReadFile implements FileSystem.
func (m MapFS) ReadFile(path string) ([]byte, error) {
	s, ok := m[path]
	if !ok {
		return nil, fmt.Errorf("cdl: no such file %q", path)
	}
	return []byte(s), nil
}

// DirFS is a FileSystem over the directory tree rooted at the named
// directory. Paths are confined to the root: one that climbs with ".."
// resolves inside it.
type DirFS string

// ReadFile implements FileSystem.
func (d DirFS) ReadFile(path string) ([]byte, error) {
	return os.ReadFile(filepath.Join(string(d), filepath.Clean("/"+path)))
}

// Result is a compiled config artifact.
type Result struct {
	// Path is the source path that was compiled.
	Path string
	// JSON is the canonical JSON artifact checked into the repository
	// alongside the source (§3.1: "the source code of config programs and
	// generated JSON configs are stored in a version control tool").
	JSON []byte
	// Value is the normalized exported value (defaults filled). It is
	// shared with the engine's result cache and must be treated as
	// immutable.
	Value Value
	// SchemaName is the exported struct's schema ("" for schemaless
	// exports such as plain maps).
	SchemaName string
	// Imports are the direct dependency edges of the root module.
	Imports []string
	// Deps are all transitively loaded module paths (excluding the root),
	// sorted — the input to the Dependency Service.
	Deps []string
}

// cloneResult copies the Result's slices so result-cache entries cannot be
// corrupted by a caller mutating what Compile returned. Value is shared
// (values are immutable once evaluated).
func cloneResult(r *Result) *Result {
	out := *r
	out.JSON = append([]byte(nil), r.JSON...)
	out.Imports = append([]string(nil), r.Imports...)
	out.Deps = append([]string(nil), r.Deps...)
	return &out
}

// loadState tracks one compilation's module graph.
type loadState struct {
	eng    *Engine
	fs     FileSystem
	h      *hasher // nil disables all cache use for this compile
	eval   *evaluator
	global *Env

	modules map[string]*Env // path -> module env (top-level bindings)
	// imports records each loaded module's direct import paths in
	// statement order (the root's become Result.Imports).
	imports map[string][]string
	// cached marks modules whose evaluation is backed by a cache entry
	// (activated from one, or stored as one this compile). A module may
	// only be cached if all its direct imports are.
	cached map[string]bool
	// entries holds the cache entry per cached path, for building the
	// closure metadata of dependent entries.
	entries map[string]*moduleEntry
	// usedCache is set once any module was activated from cache; together
	// with a global-env rebind it triggers the uncached-redo fallback.
	usedCache  bool
	inProgress map[string]bool
	order      []string
	validators map[string][]registeredValidator
	// building is the closure key this loadState was spawned to build
	// (engine single-flight); load must not re-enter that flight.
	building string
}

func newLoadState(eng *Engine, fs FileSystem, h *hasher) *loadState {
	return &loadState{
		eng:        eng,
		fs:         fs,
		h:          h,
		eval:       &evaluator{schemas: map[string]*SchemaDef{}, validators: map[string][]*ValidatorStmt{}},
		global:     baseEnv(),
		modules:    map[string]*Env{},
		imports:    map[string][]string{},
		cached:     map[string]bool{},
		entries:    map[string]*moduleEntry{},
		inProgress: map[string]bool{},
		validators: map[string][]registeredValidator{},
	}
}

// load returns the module environment for path, loading imports first.
// With caching enabled it consults the engine's module cache and falls
// back to a fresh in-context evaluation whenever the cached entry cannot
// be proven equivalent — so every error, and every success, is produced by
// the same code path the seed compiler used.
func (st *loadState) load(path string) (*Env, error) {
	if env, ok := st.modules[path]; ok {
		return env, nil
	}
	if st.inProgress[path] {
		return nil, fmt.Errorf("cdl: import cycle through %q", path)
	}
	st.inProgress[path] = true
	defer delete(st.inProgress, path)

	// Cache consult. Skipped when the global env has been rebound (a
	// module assigned over a builtin): cached entries bake a pristine
	// global and would no longer match seed semantics.
	if st.h != nil && !st.eng.CacheDisabled && st.global.version == 0 {
		info := st.h.info(path)
		if info.err == nil {
			ent := st.eng.module(info.key)
			if ent == nil && st.building != info.key {
				// Miss: build the module once (single-flight across
				// goroutines). A build error is discarded — the fresh
				// in-context evaluation below reproduces it with seed
				// semantics (the standalone build lacks unrelated
				// modules' schemas, so it can fail where the real
				// compile would not).
				if built, err := st.eng.buildModule(st.h, path, info); err == nil {
					ent = built
				}
			}
			if ent != nil && !ent.uncacheable {
				env, ok, err := st.activate(path, ent)
				if ok {
					return env, err
				}
			}
		}
	}
	return st.evalModule(path)
}

// activate splices a cached module into this compile: it registers the
// module's schemas (with the seed's duplicate check) and replays its
// recorded effects — imports, validator registrations, exports — in
// original statement order. ok=false means the entry cannot be used in
// this compile's context (a struct literal name would now resolve against
// a schema from outside the module's closure) and the caller must
// evaluate fresh; in that case no state has been mutated.
func (st *loadState) activate(path string, ent *moduleEntry) (env *Env, ok bool, err error) {
	for _, n := range ent.schemaRefs {
		if _, clash := st.eval.schemas[n]; clash && !ent.schemaNames[n] {
			return nil, false, nil
		}
	}
	st.usedCache = true
	for _, sd := range ent.schemas {
		if prev, dup := st.eval.schemas[sd.Name]; dup && prev != sd {
			return nil, true, errf(sd.Pos, "schema %q already defined at %s", sd.Name, prev.Pos)
		}
		st.eval.schemas[sd.Name] = sd
	}
	for _, eff := range ent.effects {
		switch {
		case eff.importPath != "":
			if _, err := st.load(eff.importPath); err != nil {
				return nil, true, err
			}
		case eff.validator != nil:
			s := eff.validator.stmt
			st.eval.validators[s.Schema] = append(st.eval.validators[s.Schema], s)
			st.validators[s.Schema] = append(st.validators[s.Schema], *eff.validator)
		case eff.hasExport:
			st.eval.exported = eff.export
			st.eval.hasExport = true
		}
	}
	st.modules[path] = ent.env
	st.imports[path] = ent.imports
	st.cached[path] = true
	st.entries[path] = ent
	st.order = append(st.order, path)
	return ent.env, true, nil
}

// evalModule parses and evaluates one module fresh (the seed code path),
// recording its module-level effects so the evaluation can be published as
// a cache entry when it proves cacheable.
func (st *loadState) evalModule(path string) (*Env, error) {
	var info *keyInfo
	if st.h != nil && !st.eng.CacheDisabled {
		info = st.h.info(path)
	}
	var src []byte
	if info != nil && info.src != nil {
		src = info.src
	} else {
		var err error
		src, err = st.fs.ReadFile(path)
		if err != nil {
			return nil, err
		}
	}
	mod, err := st.eng.parseModule(path, src)
	if err != nil {
		return nil, err
	}
	env := NewEnv(st.global)

	// Register schemas before evaluating statements so struct literals in
	// the same file resolve.
	for _, sd := range mod.Schemas {
		if prev, ok := st.eval.schemas[sd.Name]; ok && prev != sd {
			return nil, errf(sd.Pos, "schema %q already defined at %s", sd.Name, prev.Pos)
		}
		st.eval.schemas[sd.Name] = sd
	}

	var effects []modEffect
	var imports []string
	for _, stm := range mod.Stmts {
		switch s := stm.(type) {
		case *ImportStmt:
			depEnv, err := st.load(s.Path)
			if err != nil {
				return nil, err
			}
			// import binds every top-level name of the dependency, like
			// the paper's import_python(path, "*").
			for _, name := range depEnv.Names() {
				v, _ := depEnv.Lookup(name)
				env.Define(name, v)
			}
			imports = append(imports, s.Path)
			effects = append(effects, modEffect{importPath: s.Path})
		case *ValidatorStmt:
			st.eval.validators[s.Schema] = append(st.eval.validators[s.Schema], s)
			rv := &registeredValidator{stmt: s, env: env}
			st.validators[s.Schema] = append(st.validators[s.Schema], *rv)
			effects = append(effects, modEffect{validator: rv})
		default:
			seq := st.eval.exportSeq
			if _, err := st.eval.exec(stm, env); err != nil {
				return nil, err
			}
			if st.eval.exportSeq != seq {
				// The statement (possibly an if/for wrapping an export)
				// changed the exported value; record the final state so
				// replay preserves last-export-wins across modules.
				effects = append(effects, modEffect{hasExport: true, export: st.eval.exported})
			}
		}
	}
	st.modules[path] = env
	st.imports[path] = imports
	st.order = append(st.order, path)

	st.maybeStore(path, info, mod, env, effects, imports, src)
	return env, nil
}

// maybeStore publishes the just-finished evaluation as a module cache
// entry when that is provably sound: the closure key is computable, the
// module's own AST passed the cache-safety analysis, every direct import
// is itself cache-backed, and the global env stayed pristine for the whole
// compile so far. Otherwise (with a valid key) it records an uncacheable
// marker so future compiles skip the build attempt.
func (st *loadState) maybeStore(path string, info *keyInfo, mod *Module, env *Env, effects []modEffect, imports []string, src []byte) {
	if st.h == nil || st.eng.CacheDisabled || info == nil || info.err != nil || st.global.version != 0 {
		return
	}
	safe, ownRefs := st.eng.parseMeta(path, src)
	cacheable := safe
	for _, dep := range imports {
		if !st.cached[dep] {
			cacheable = false
			break
		}
	}
	if !cacheable {
		st.eng.storeUncacheable(info.key, path, info.closure)
		return
	}
	names := make(map[string]bool, len(mod.Schemas))
	for _, sd := range mod.Schemas {
		names[sd.Name] = true
	}
	refs := make(map[string]bool, len(ownRefs))
	for _, r := range ownRefs {
		refs[r] = true
	}
	for _, dep := range imports {
		dent := st.entries[dep]
		if dent == nil {
			return // activation raced an eviction; skip storing
		}
		for n := range dent.schemaNames {
			names[n] = true
		}
		for _, r := range dent.schemaRefs {
			refs[r] = true
		}
	}
	refList := make([]string, 0, len(refs))
	for r := range refs {
		refList = append(refList, r)
	}
	sort.Strings(refList)
	ent := &moduleEntry{
		key:         info.key,
		path:        path,
		env:         env,
		schemas:     mod.Schemas,
		effects:     effects,
		imports:     imports,
		closure:     info.closure,
		schemaNames: names,
		schemaRefs:  refList,
	}
	st.eng.storeModule(ent)
	st.cached[path] = true
	st.entries[path] = ent
}

// finish runs the post-load stages of a compile: the export check, schema
// normalization, validators, and canonical JSON marshalling.
func (st *loadState) finish(path string, env *Env) (*Result, error) {
	if !st.eval.hasExport {
		return nil, errf(Pos{File: path, Line: 1, Col: 1}, "module exports nothing (missing `export`)")
	}
	exported := st.eval.exported
	res := &Result{Path: path}
	res.Imports = append(res.Imports, st.imports[path]...)
	for _, p := range st.order {
		if p != path {
			res.Deps = append(res.Deps, p)
		}
	}
	sort.Strings(res.Deps)

	// Schema normalization for struct exports.
	if s, ok := exported.(*Struct); ok {
		sd, ok := st.eval.schemas[s.Schema]
		if !ok {
			return nil, errf(Pos{File: path, Line: 1, Col: 1}, "exported struct has unknown schema %q", s.Schema)
		}
		norm, err := st.eval.checkSchema(Pos{File: path, Line: 1, Col: 1}, s, sd, env)
		if err != nil {
			return nil, err
		}
		exported = norm
		res.SchemaName = s.Schema
	}

	// Run validators over every struct instance in the exported tree. The
	// Configerator compiler "automatically runs validators to verify
	// invariants defined for configs" (§1) for every config of the type.
	if err := st.runValidators(exported); err != nil {
		return nil, err
	}

	js, err := MarshalJSON(exported)
	if err != nil {
		return nil, errf(Pos{File: path, Line: 1, Col: 1}, "%v", err)
	}
	res.JSON = []byte(js)
	res.Value = exported
	return res, nil
}

// runValidators walks the value tree and applies every validator registered
// for each struct's schema.
func (st *loadState) runValidators(v Value) error {
	switch x := v.(type) {
	case *Struct:
		// A derived schema inherits its ancestors' validators: a config
		// of type Derived must satisfy Base's invariants too.
		for _, schemaName := range st.schemaChain(x.Schema) {
			for _, rv := range st.validators[schemaName] {
				scope := NewEnv(rv.env)
				scope.Define(rv.stmt.Param, x)
				if _, err := st.eval.execBlock(rv.stmt.Body, scope); err != nil {
					return fmt.Errorf("cdl: validator for %s: %w", schemaName, err)
				}
			}
		}
		// Deterministic field order for nested validation.
		keys := make([]string, 0, len(x.Fields))
		for k := range x.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := st.runValidators(x.Fields[k]); err != nil {
				return err
			}
		}
	case List:
		for _, e := range x {
			if err := st.runValidators(e); err != nil {
				return err
			}
		}
	case Map:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := st.runValidators(x[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// schemaChain lists a schema and its ancestors (self first). Cycles are
// cut short here; resolveFields reports them as errors during checking.
func (st *loadState) schemaChain(name string) []string {
	var out []string
	seen := make(map[string]bool)
	for cur := name; cur != "" && !seen[cur]; {
		seen[cur] = true
		out = append(out, cur)
		sd := st.eval.schemas[cur]
		if sd == nil {
			break
		}
		cur = sd.Extends
	}
	return out
}

// EvalExpr evaluates a standalone CDL expression with builtins available —
// the engine behind Sitevars values, which are "a PHP expression" in the
// paper and a CDL expression here.
func EvalExpr(src string) (Value, error) {
	toks, err := lexAll("<expr>", src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, file: "<expr>"}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, errf(p.cur().pos, "unexpected trailing input %q", p.cur().text)
	}
	ev := &evaluator{schemas: map[string]*SchemaDef{}, validators: map[string][]*ValidatorStmt{}}
	return ev.eval(x, NewEnv(baseEnv()))
}
