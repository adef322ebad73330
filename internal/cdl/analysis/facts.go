package analysis

import (
	"sort"
	"sync"

	"configerator/internal/cdl"
)

// ModuleFacts is what the driver precomputes about one module before any
// analyzer runs: its own top-level bindings, everything each import makes
// visible (transitively — importing a module injects the dep's entire
// module environment, including names the dep itself imported), the
// schemas and validators in the closure, and the per-import breakdown the
// unused-import analyzer needs.
type ModuleFacts struct {
	// Path is the module's source path; IsRoot reports a .cconf (an
	// artifact-producing top-level config, as opposed to a .cinc library).
	Path   string
	IsRoot bool

	// Own maps each top-level let/def name to its declaration position.
	// Bindings inside if/for blocks are excluded: the evaluator executes
	// those in child scopes, so they never land in the module environment.
	Own map[string]cdl.Pos

	// Env maps every name visible at module top level (imports merged in
	// source order, then own bindings) to the path of the module that
	// declares it. Builtins are not included; see Builtins.
	Env map[string]string

	// Builtins is the global environment's name set.
	Builtins map[string]bool

	// Provides maps each direct import path to the names its environment
	// injects (name → declaring module path).
	Provides map[string]map[string]string

	// Schemas maps every schema name visible in the module's closure
	// (including its own) to the definition.
	Schemas map[string]*cdl.SchemaDef

	// SchemasFrom maps each direct import path to the schema names its
	// closure registers.
	SchemasFrom map[string]map[string]bool

	// Validated holds schema names that have a validator registered
	// anywhere in the closure (including this module).
	Validated map[string]bool

	// ValidatorFrom reports, per direct import path, whether that import's
	// closure registers any validator — a side effect that makes an import
	// load-bearing even when none of its names are referenced.
	ValidatorFrom map[string]bool

	// ExportFrom reports, per direct import path, whether that import's
	// closure executes an export statement. Under last-export-wins
	// semantics a dep's export can be the module's result, so such an
	// import is load-bearing for a module with no export of its own.
	ExportFrom map[string]bool

	// HasExport reports whether the module itself has an export statement.
	HasExport bool

	// Closure is every path reachable through imports, excluding self,
	// sorted.
	Closure []string
}

// Universe is the full set of modules the driver loaded, with reverse
// import edges for cross-module analyzers.
type Universe struct {
	// Modules maps path → facts for every successfully parsed module.
	Modules map[string]*ModuleFacts
	// ASTs maps path → parsed module.
	ASTs map[string]*cdl.Module
	// Importers maps path → sorted direct importer paths.
	Importers map[string][]string
	// Roots are the paths lint was invoked on (sorted).
	Roots []string
}

// closureInfo is the memoized per-module summary used to build facts.
type closureInfo struct {
	env          map[string]string         // name → declaring path
	schemas      map[string]*cdl.SchemaDef // name → def
	validated    map[string]bool           // schema name → has validator
	hasValidator bool
	hasExport    bool
	reach        map[string]bool // reachable paths, including self
}

// factBuilder computes closure summaries over a parsed universe. Cycles
// are tolerated: a module re-entered during its own computation
// contributes its partial summary, which is enough for lint (the
// import-cycle analyzer reports the cycle itself as an Error).
type factBuilder struct {
	mods     map[string]*cdl.Module
	memo     map[string]*closureInfo
	builtins map[string]bool
	mu       sync.Mutex
}

func newFactBuilder(mods map[string]*cdl.Module) *factBuilder {
	b := &factBuilder{
		mods:     mods,
		memo:     make(map[string]*closureInfo),
		builtins: make(map[string]bool),
	}
	for _, n := range cdl.BuiltinNames() {
		b.builtins[n] = true
	}
	return b
}

// info returns the closure summary for path, computing it on first use.
// Callers must hold no locks; info serializes internally (the DFS is
// cheap relative to parsing).
func (b *factBuilder) info(path string) *closureInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.infoLocked(path)
}

func (b *factBuilder) infoLocked(path string) *closureInfo {
	if ci, ok := b.memo[path]; ok {
		return ci
	}
	ci := &closureInfo{
		env:       make(map[string]string),
		schemas:   make(map[string]*cdl.SchemaDef),
		validated: make(map[string]bool),
		reach:     map[string]bool{path: true},
	}
	// Publish before recursing so import cycles see the partial summary
	// instead of recursing forever.
	b.memo[path] = ci
	mod := b.mods[path]
	if mod == nil {
		return ci
	}
	for _, sd := range mod.Schemas {
		ci.schemas[sd.Name] = sd
	}
	// Statements in source order: an import merges the dep's environment;
	// a later own binding (or later import) wins, matching the evaluator.
	for _, st := range mod.Stmts {
		switch s := st.(type) {
		case *cdl.ImportStmt:
			dep := b.infoLocked(s.Path)
			for name, origin := range dep.env {
				ci.env[name] = origin
			}
			for name, sd := range dep.schemas {
				ci.schemas[name] = sd
			}
			for name := range dep.validated {
				ci.validated[name] = true
			}
			ci.hasValidator = ci.hasValidator || dep.hasValidator
			ci.hasExport = ci.hasExport || dep.hasExport
			for p := range dep.reach {
				ci.reach[p] = true
			}
		case *cdl.LetStmt:
			ci.env[s.Name] = path
		case *cdl.DefStmt:
			ci.env[s.Name] = path
		case *cdl.ValidatorStmt:
			ci.validated[s.Schema] = true
			ci.hasValidator = true
		case *cdl.ExportStmt:
			ci.hasExport = true
		}
	}
	return ci
}

// facts assembles the ModuleFacts for one module.
func (b *factBuilder) facts(path string) *ModuleFacts {
	mod := b.mods[path]
	self := b.info(path)
	f := &ModuleFacts{
		Path:          path,
		IsRoot:        isRootPath(path),
		Own:           make(map[string]cdl.Pos),
		Env:           make(map[string]string, len(self.env)),
		Builtins:      b.builtins,
		Provides:      make(map[string]map[string]string),
		Schemas:       make(map[string]*cdl.SchemaDef, len(self.schemas)),
		SchemasFrom:   make(map[string]map[string]bool),
		Validated:     make(map[string]bool, len(self.validated)),
		ValidatorFrom: make(map[string]bool),
		ExportFrom:    make(map[string]bool),
		HasExport:     false,
	}
	for name, origin := range self.env {
		f.Env[name] = origin
	}
	for name, sd := range self.schemas {
		f.Schemas[name] = sd
	}
	for name := range self.validated {
		f.Validated[name] = true
	}
	for p := range self.reach {
		if p != path {
			f.Closure = append(f.Closure, p)
		}
	}
	sort.Strings(f.Closure)
	if mod == nil {
		return f
	}
	for _, st := range mod.Stmts {
		switch s := st.(type) {
		case *cdl.LetStmt:
			f.Own[s.Name] = s.NamePos
		case *cdl.DefStmt:
			f.Own[s.Name] = s.NamePos
		case *cdl.ExportStmt:
			f.HasExport = true
		case *cdl.ImportStmt:
			dep := b.info(s.Path)
			prov := make(map[string]string, len(dep.env))
			for name, origin := range dep.env {
				prov[name] = origin
			}
			f.Provides[s.Path] = prov
			schemas := make(map[string]bool, len(dep.schemas))
			for name := range dep.schemas {
				schemas[name] = true
			}
			f.SchemasFrom[s.Path] = schemas
			f.ValidatorFrom[s.Path] = dep.hasValidator
			f.ExportFrom[s.Path] = dep.hasExport
		}
	}
	return f
}

func isRootPath(path string) bool {
	return len(path) > 6 && path[len(path)-6:] == ".cconf"
}

// InClosure reports whether path is reachable through this module's
// imports (transitively, excluding the module itself).
func (f *ModuleFacts) InClosure(path string) bool {
	i := sort.SearchStrings(f.Closure, path)
	return i < len(f.Closure) && f.Closure[i] == path
}

// validatedWithBases reports whether schema name (or any schema it
// extends) has a validator in the module's closure. Validators are
// inherited along the extends chain, so a base-schema validator covers
// every derived schema.
func (f *ModuleFacts) validatedWithBases(name string) bool {
	seen := map[string]bool{}
	for name != "" && !seen[name] {
		seen[name] = true
		if f.Validated[name] {
			return true
		}
		sd := f.Schemas[name]
		if sd == nil {
			return false
		}
		name = sd.Extends
	}
	return false
}
