package cdl

// Static purity analysis: which assignments write state outside the call
// that executes them.
//
// A `def` or `validator` body runs each time it is called, in a scope
// chained to the environment it was defined in. An `x = expr` assignment
// in such a body that binds to a scope existing at module-evaluation time
// — the module env, a top-level if/for block env captured by a nested def,
// a builtin in the global env, or an imported name — mutates state every
// later caller sees. The value a config gets from such a function then
// depends on how many times, and in which order, the compile has called it
// before: reordering two fields of an export, or importing the library
// from one more module, changes the artifact.
//
// ImpureAssignments resolves each assignment in a deferred body against
// the lexical scopes *created at call time* (parameters, `let`s and `for`
// variables inside the body, and enclosing function-call scopes, which are
// all fresh per invocation); anything else is reported. A top-level
// assignment to a name the module does not itself define (an imported
// name or a shared builtin) is reported too: it changes what every module
// evaluated later in the same compile sees.
//
// The analysis is flow-sensitive within a block (a `let` only makes the
// name local for statements after it, matching the evaluator) and
// conservative: anything it cannot prove call-local is reported.

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
// of a compile — or fails at runtime. All three are conservatively
// reported.
func (s *scanScope) resolves(name string) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.names[name] {
			return true
		}
	}
	return false
}

// ImpureAssignments returns every assignment statement whose write
// outlives the statement's own call, in source order: an assignment inside
// a deferred body (def or validator) that could bind to a scope existing at
// module-evaluation time, or a top-level assignment to a name the module
// does not itself define (a rebind of an imported name or a shared
// builtin). Results from such a module depend on call order; the
// configlint impure-construct analyzer surfaces each returned site as a
// diagnostic.
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
