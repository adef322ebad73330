package cdl

import "sort"

// Static cache-safety analysis for module memoization.
//
// A memoized module's evaluated environment is shared, read-only, across
// Compile calls (and across goroutines in CompileAll). That is only sound
// if nothing can write to the environment after module evaluation
// finishes. The one post-evaluation write path in CDL is an `x = expr`
// assignment executed inside a deferred body — a `def` function or a
// `validator` — whose closure chains up to the module environment: calling
// such a function later would mutate the shared environment.
//
// astCacheSafe walks every deferred body and resolves each assignment
// against the lexical scopes *created at call time* (parameters, `let`s and
// `for` variables inside the body, and enclosing function-call scopes,
// which are all fresh per invocation). If an assignment could bind to any
// scope that exists at module-evaluation time — the module env, a
// top-level if/for block env captured by a nested def, a builtin in the
// global env, or an imported name — the module is declared unsafe and is
// evaluated fresh on every compile instead of being cached.
//
// The analysis is flow-sensitive within a block (a `let` only makes the
// name local for statements after it, matching the evaluator) and
// conservative: anything it cannot prove call-local is treated as a module
// mutation.

// collectStructRefs gathers every StructExpr type name appearing anywhere
// in the module — including def and validator bodies, which may run during
// another module's evaluation. `Name{...}` resolves as a schema literal
// when Name is a registered schema and as variable-update syntax otherwise,
// and the seed compiler's schema namespace is compile-global: a schema
// registered by an unrelated, non-imported module changes how the
// expression resolves. Activating a cached module is therefore gated on
// none of these names being bound to a schema from outside the module's
// own closure (see loadState.activate).
func collectStructRefs(mod *Module) []string {
	set := map[string]bool{}
	WalkStmts(mod.Stmts, func(x Expr) {
		if e, ok := x.(*StructExpr); ok {
			set[e.Type] = true
		}
	})
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// scanScope is one lexical block during the static walk. callLocal marks
// scopes that the evaluator materializes per function call (safe to
// mutate); module-evaluation-time scopes have callLocal=false.
type scanScope struct {
	parent    *scanScope
	names     map[string]bool
	callLocal bool
}

func newScanScope(parent *scanScope, callLocal bool) *scanScope {
	return &scanScope{parent: parent, names: map[string]bool{}, callLocal: callLocal}
}

// resolvesCallLocal reports whether an assignment to name would bind inside
// a per-call scope. Unknown names fall through to the module/global env,
// which is not call-local.
func (s *scanScope) resolvesCallLocal(name string) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.names[name] {
			return cur.callLocal
		}
	}
	return false
}

// resolves reports whether the name is bound anywhere in the statically
// visible scopes. An unresolved top-level assignment either rebinds an
// imported name (invisible to this single-module walk), rebinds a builtin
// in the global env — which the seed semantics share across every module
// of a compile — or fails at runtime. All three are conservatively treated
// as unsafe to memoize.
func (s *scanScope) resolves(name string) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.names[name] {
			return true
		}
	}
	return false
}

// astCacheSafe reports whether the module's evaluated environment may be
// shared across compiles.
func astCacheSafe(mod *Module) bool {
	return len(ImpureAssignments(mod)) == 0
}

// ImpureAssignments returns every assignment statement that defeats module
// memoization, in source order: an assignment inside a deferred body (def
// or validator) that could bind to a scope existing at module-evaluation
// time, or a top-level assignment to a name the module does not itself
// define (a rebind of an imported name or a shared builtin). A module with
// no impure assignments is cache-safe and its evaluated environment may be
// shared across compiles; the configlint impure-construct analyzer
// surfaces each returned site as a diagnostic.
func ImpureAssignments(mod *Module) []*AssignStmt {
	top := newScanScope(nil, false)
	var sites []*AssignStmt
	collectImpure(mod.Stmts, top, false, &sites)
	return sites
}

// collectImpure walks a statement list inside the given scope, appending
// unsafe assignments to sites. inDeferred is true once the walk has entered
// a def or validator body (where assignments execute after module
// evaluation).
func collectImpure(stmts []Stmt, scope *scanScope, inDeferred bool, sites *[]*AssignStmt) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *LetStmt:
			scope.names[s.Name] = true
		case *AssignStmt:
			if inDeferred {
				if !scope.resolvesCallLocal(s.Name) {
					*sites = append(*sites, s)
				}
			} else if !scope.resolves(s.Name) {
				*sites = append(*sites, s)
			}
		case *DefStmt:
			scope.names[s.Name] = true
			body := newScanScope(scope, true)
			for _, p := range s.Params {
				body.names[p] = true
			}
			collectImpure(s.Body, body, true, sites)
		case *ValidatorStmt:
			body := newScanScope(scope, true)
			body.names[s.Param] = true
			collectImpure(s.Body, body, true, sites)
		case *IfStmt:
			// Child blocks inherit call-locality from the enclosing scope:
			// a block env inside a def is per-call, a top-level block env
			// is created once at module evaluation and captured by any def
			// defined inside it.
			collectImpure(s.Then, newScanScope(scope, scope.callLocal), inDeferred, sites)
			collectImpure(s.Else, newScanScope(scope, scope.callLocal), inDeferred, sites)
		case *ForStmt:
			body := newScanScope(scope, scope.callLocal)
			body.names[s.Var] = true
			collectImpure(s.Body, body, inDeferred, sites)
		}
	}
}
