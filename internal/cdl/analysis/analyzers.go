package analysis

import (
	"fmt"
	"sort"
	"strings"

	"configerator/internal/cdl"
)

// The built-in analyzer suite. Each analyzer is registered at package
// init, so every consumer (CLI, pipeline, CI sandbox, landing strip)
// shares the same checks.
func init() {
	Register(UnusedImport)
	Register(UndefinedReference)
	Register(ShadowedExport)
	Register(SchemaConformance)
	Register(ValidatorCoverage)
	Register(ImportCycle)
	Register(DeadExport)
	Register(ImpureConstruct)
	Register(DeprecatedSitevar)
}

// collectRefs gathers every identifier referenced anywhere in the module
// (including assignment targets) and every struct-literal type name —
// the raw material for import-usage reasoning.
func collectRefs(mod *cdl.Module) (idents, structTypes map[string]bool) {
	idents = map[string]bool{}
	structTypes = map[string]bool{}
	record := func(e cdl.Expr) {
		switch x := e.(type) {
		case *cdl.IdentExpr:
			idents[x.Name] = true
		case *cdl.StructExpr:
			structTypes[x.Type] = true
		}
	}
	cdl.WalkStmts(mod.Stmts, record)
	var walkAssigns func([]cdl.Stmt)
	walkAssigns = func(stmts []cdl.Stmt) {
		for _, st := range stmts {
			switch s := st.(type) {
			case *cdl.AssignStmt:
				idents[s.Name] = true
			case *cdl.DefStmt:
				walkAssigns(s.Body)
			case *cdl.ValidatorStmt:
				walkAssigns(s.Body)
			case *cdl.IfStmt:
				walkAssigns(s.Then)
				walkAssigns(s.Else)
			case *cdl.ForStmt:
				walkAssigns(s.Body)
			}
		}
	}
	walkAssigns(mod.Stmts)
	// Schema fields of struct type reference that schema by name.
	for _, sd := range mod.Schemas {
		if sd.Extends != "" {
			structTypes[sd.Extends] = true
		}
		for _, f := range sd.Fields {
			for t := f.Type; t != nil; t = t.Elem {
				if t.Kind == cdl.KindStruct {
					structTypes[t.Name] = true
				}
			}
			if f.Default != nil {
				cdl.WalkExpr(f.Default, record)
			}
		}
	}
	return idents, structTypes
}

// UnusedImport warns about imports whose closure contributes nothing the
// module observes: no referenced name, no referenced schema, no validator
// registration, and no export the module relies on.
var UnusedImport = &Analyzer{
	Name: "unused-import",
	Doc: "report imports that contribute no referenced name, no referenced " +
		"schema, no validator, and no export the module relies on",
	Run: func(pass *Pass) {
		idents, structTypes := collectRefs(pass.Module)
		for _, imp := range pass.Module.Imports {
			used := false
			for name := range pass.Facts.Provides[imp.Path] {
				if idents[name] {
					used = true
					break
				}
			}
			if !used {
				for name := range pass.Facts.SchemasFrom[imp.Path] {
					if structTypes[name] {
						used = true
						break
					}
				}
			}
			// Importing a module whose closure registers validators is a
			// side effect: those validators run against this module's
			// export. Likewise, under last-export-wins semantics a module
			// with no export of its own may be exporting through the dep.
			if !used && pass.Facts.ValidatorFrom[imp.Path] {
				used = true
			}
			if !used && !pass.Facts.HasExport && pass.Facts.ExportFrom[imp.Path] {
				used = true
			}
			if !used {
				pass.Report(Diagnostic{
					Pos: imp.Pos, End: imp.End,
					Severity:     Warn,
					Message:      fmt.Sprintf("import %q is unused", imp.Path),
					SuggestedFix: "remove the import",
				})
			}
		}
	},
}

// UndefinedReference errors on identifiers that resolve to nothing — not a
// builtin, not an import, not a binding in any enclosing scope. The walk
// is flow-insensitive within a block (conservative), so every report is a
// guaranteed runtime failure on the path that evaluates it.
var UndefinedReference = &Analyzer{
	Name: "undefined-reference",
	Doc: "error on identifiers and assignment targets that no visible " +
		"binding, import, or builtin defines",
	Run: func(pass *Pass) {
		base := newScope(nil)
		for n := range pass.Facts.Builtins {
			base.names[n] = true
		}
		env := newScope(base)
		for n := range pass.Facts.Env {
			env.names[n] = true
		}
		scopeWalk(pass.Module, env, scopeVisitor{
			expr: func(x cdl.Expr, sc *scope) {
				id, ok := x.(*cdl.IdentExpr)
				if !ok || sc.has(id.Name) {
					return
				}
				d := Diagnostic{
					Pos: id.Pos, End: id.End,
					Severity: Error,
					Message:  fmt.Sprintf("undefined reference to %q", id.Name),
				}
				if near := nearest(id.Name, sc.all()); near != "" {
					d.SuggestedFix = fmt.Sprintf("did you mean %q?", near)
				}
				pass.Report(d)
			},
			assign: func(s *cdl.AssignStmt, sc *scope) {
				if sc.has(s.Name) {
					return
				}
				pass.Report(Diagnostic{
					Pos: s.Pos, End: s.End,
					Severity:     Error,
					Message:      fmt.Sprintf("assignment to undefined variable %q", s.Name),
					SuggestedFix: fmt.Sprintf("declare it first: let %s = ...;", s.Name),
				})
			},
		})
	},
}

// ShadowedExport warns when a module's own top-level binding silently
// shadows a name one of its imports provides, and when two imports
// provide the same name from different modules (the later import wins).
var ShadowedExport = &Analyzer{
	Name: "shadowed-export",
	Doc: "warn when a top-level binding shadows an imported name, or two " +
		"imports provide the same name from different modules",
	Run: func(pass *Pass) {
		mod := pass.Module
		// Own bindings shadowing imported names. The import set is checked
		// as a whole: any import that provides the name from another module
		// is being shadowed.
		reportShadow := func(name string, pos, end cdl.Pos) {
			for _, imp := range mod.Imports {
				origin, ok := pass.Facts.Provides[imp.Path][name]
				if ok && origin != pass.Path {
					pass.Reportf(Warn, pos, end,
						"%q shadows the binding imported from %s", name, origin)
					return
				}
			}
		}
		for _, st := range mod.Stmts {
			switch s := st.(type) {
			case *cdl.LetStmt:
				reportShadow(s.Name, s.NamePos, s.NameEnd)
			case *cdl.DefStmt:
				reportShadow(s.Name, s.NamePos, s.NameEnd)
			}
		}
		// Import-import collisions. Diamond imports are benign (same
		// declaring module through two paths); only genuinely different
		// origins collide.
		seen := map[string]string{} // name → declaring module
		for _, imp := range mod.Imports {
			var collisions []string
			for name, origin := range pass.Facts.Provides[imp.Path] {
				if prev, ok := seen[name]; ok && prev != origin {
					collisions = append(collisions, fmt.Sprintf(
						"%q (from %s, previously from %s)", name, origin, prev))
				}
			}
			sort.Strings(collisions)
			for _, c := range collisions {
				pass.Reportf(Warn, imp.PathPos, imp.PathEnd,
					"import redefines %s", c)
			}
			for name, origin := range pass.Facts.Provides[imp.Path] {
				seen[name] = origin
			}
		}
	},
}

// effectiveFields flattens a schema's extends chain into one field map
// (derived fields override base fields of the same name).
func effectiveFields(sd *cdl.SchemaDef, schemas map[string]*cdl.SchemaDef) map[string]*cdl.FieldDef {
	var chain []*cdl.SchemaDef
	seen := map[string]bool{}
	for cur := sd; cur != nil && !seen[cur.Name]; {
		seen[cur.Name] = true
		chain = append(chain, cur)
		if cur.Extends == "" {
			break
		}
		cur = schemas[cur.Extends]
	}
	fields := map[string]*cdl.FieldDef{}
	for i := len(chain) - 1; i >= 0; i-- {
		for _, f := range chain[i].Fields {
			fields[f.Name] = f
		}
	}
	return fields
}

// litMatches reports whether a literal value is acceptable for a field
// type; non-literal expressions and null are not judged statically.
func litMatches(t *cdl.TypeExpr, e cdl.Expr) (ok bool, got string) {
	switch x := e.(type) {
	case *cdl.LitExpr:
		switch x.Val.(type) {
		case cdl.Int:
			return t.Kind == cdl.KindI32 || t.Kind == cdl.KindI64 || t.Kind == cdl.KindDouble, "int"
		case cdl.Float:
			return t.Kind == cdl.KindDouble, "float"
		case cdl.Str:
			return t.Kind == cdl.KindString, "string"
		case cdl.Bool:
			return t.Kind == cdl.KindBool, "bool"
		}
		return true, "" // null and anything else: not judged
	case *cdl.ListExpr:
		return t.Kind == cdl.KindList, "list"
	case *cdl.MapExpr:
		return t.Kind == cdl.KindMap, "map"
	case *cdl.StructExpr:
		if t.Kind == cdl.KindStruct {
			return t.Name == x.Type, x.Type
		}
		return false, x.Type
	}
	return true, ""
}

// SchemaConformance checks struct literals against their schema: unknown
// schema names, unknown fields, statically-visible type mismatches
// (Error), and missing fields that have no default (Warn).
var SchemaConformance = &Analyzer{
	Name: "schema-conformance",
	Doc: "check struct literals against schema definitions: unknown " +
		"schemas and fields and literal type mismatches are errors; a " +
		"missing field with no default is a warning",
	Run: func(pass *Pass) {
		base := newScope(nil)
		for n := range pass.Facts.Builtins {
			base.names[n] = true
		}
		env := newScope(base)
		for n := range pass.Facts.Env {
			env.names[n] = true
		}
		scopeWalk(pass.Module, env, scopeVisitor{
			expr: func(x cdl.Expr, sc *scope) {
				se, ok := x.(*cdl.StructExpr)
				if !ok {
					return
				}
				sd := pass.Facts.Schemas[se.Type]
				if sd == nil {
					// Name{...} where Name is a visible variable is the
					// evaluator's struct-update fallback, not a schema
					// literal.
					if !sc.has(se.Type) {
						pass.Reportf(Error, se.Pos, se.End,
							"unknown schema %q (no schema or variable of that name is visible)", se.Type)
					}
					return
				}
				fields := effectiveFields(sd, pass.Facts.Schemas)
				given := map[string]bool{}
				for i, name := range se.Names {
					given[name] = true
					f := fields[name]
					if f == nil {
						var names []string
						for n := range fields {
							names = append(names, n)
						}
						d := Diagnostic{
							Pos: cdl.ExprPos(se.Values[i]), End: cdl.ExprEnd(se.Values[i]),
							Severity: Error,
							Message:  fmt.Sprintf("unknown field %q in schema %s", name, se.Type),
						}
						if near := nearest(name, names); near != "" {
							d.SuggestedFix = fmt.Sprintf("did you mean %q?", near)
						}
						pass.Report(d)
						continue
					}
					if ok, got := litMatches(f.Type, se.Values[i]); !ok {
						pass.Reportf(Error,
							cdl.ExprPos(se.Values[i]), cdl.ExprEnd(se.Values[i]),
							"field %s of schema %s expects %s, got %s",
							name, se.Type, f.Type, got)
					}
				}
				var missing []string
				for name, f := range fields {
					if f.Default == nil && !given[name] {
						missing = append(missing, name)
					}
				}
				sort.Strings(missing)
				for _, name := range missing {
					pass.Report(Diagnostic{
						Pos: se.Pos, End: se.End,
						Severity: Warn,
						Message: fmt.Sprintf(
							"field %s of schema %s has no default and is not set (will be zero-filled)",
							name, se.Type),
						SuggestedFix: fmt.Sprintf("set %s explicitly or give it a default", name),
					})
				}
			},
		})
	},
}

// ValidatorCoverage warns when a module exports a schema literal whose
// schema (including its extends chain) has no validator anywhere in the
// import closure — the §3.3 invariant-checking hook is simply absent.
var ValidatorCoverage = &Analyzer{
	Name: "validator-coverage",
	Doc: "warn when an exported schema literal has no validator registered " +
		"for its schema anywhere in the import closure",
	Run: func(pass *Pass) {
		var walk func([]cdl.Stmt)
		walk = func(stmts []cdl.Stmt) {
			for _, st := range stmts {
				switch s := st.(type) {
				case *cdl.ExportStmt:
					se, ok := s.Value.(*cdl.StructExpr)
					if !ok {
						continue
					}
					if pass.Facts.Schemas[se.Type] == nil {
						continue // schema-conformance reports unknown schemas
					}
					if !pass.Facts.validatedWithBases(se.Type) {
						pass.Report(Diagnostic{
							Pos: s.Pos, End: s.End,
							Severity: Warn,
							Message: fmt.Sprintf(
								"exported %s value has no validator in the import closure", se.Type),
							SuggestedFix: fmt.Sprintf("add: validator %s(c) { assert(...); }", se.Type),
						})
					}
				case *cdl.IfStmt:
					walk(s.Then)
					walk(s.Else)
				case *cdl.ForStmt:
					walk(s.Body)
				}
			}
		}
		walk(pass.Module.Stmts)
	},
}

// cyclePath reconstructs one import chain from `from` back to `target`
// for the diagnostic message.
func cyclePath(uni *Universe, from, target string) []string {
	var dfs func(cur string, trail []string, seen map[string]bool) []string
	dfs = func(cur string, trail []string, seen map[string]bool) []string {
		if cur == target {
			return append(trail, cur)
		}
		if seen[cur] {
			return nil
		}
		seen[cur] = true
		mod := uni.ASTs[cur]
		if mod == nil {
			return nil
		}
		for _, imp := range mod.Imports {
			if found := dfs(imp.Path, append(trail, cur), seen); found != nil {
				return found
			}
		}
		return nil
	}
	return dfs(from, nil, map[string]bool{})
}

// ImportCycle errors on imports that close a cycle. The compiler would
// also fail on these, but only one module at a time; the analyzer reports
// the full chain at every participating import.
var ImportCycle = &Analyzer{
	Name: "import-cycle",
	Doc:  "error on import statements that close an import cycle",
	Run: func(pass *Pass) {
		for _, imp := range pass.Module.Imports {
			if imp.Path == pass.Path {
				pass.Reportf(Error, imp.PathPos, imp.PathEnd, "module imports itself")
				continue
			}
			dep := pass.Universe.Modules[imp.Path]
			if dep == nil || !dep.InClosure(pass.Path) {
				continue
			}
			chain := cyclePath(pass.Universe, imp.Path, pass.Path)
			msg := fmt.Sprintf("import cycle: %s -> %s", pass.Path, strings.Join(chain, " -> "))
			pass.Reportf(Error, imp.PathPos, imp.PathEnd, "%s", msg)
		}
	},
}

// DeadExport warns when a .cinc library exports a value but nothing in
// the lint universe imports the library: under last-export-wins semantics
// that export can never reach an artifact. (Any module reached through an
// import has an importer by construction, so this can only fire for
// libraries given as lint roots — e.g. a changed .cinc whose full
// importer set the pipeline includes via the dependency graph.)
var DeadExport = &Analyzer{
	Name: "dead-export",
	Doc: "warn when a .cinc library has an export statement but no module " +
		"in the lint universe imports it",
	Run: func(pass *Pass) {
		if pass.Facts.IsRoot || !pass.Facts.HasExport {
			return
		}
		if len(pass.Universe.Importers[pass.Path]) > 0 {
			return
		}
		for _, st := range pass.Module.Stmts {
			if s, ok := st.(*cdl.ExportStmt); ok {
				pass.Report(Diagnostic{
					Pos: s.Pos, End: s.End,
					Severity:     Warn,
					Message:      "library is never imported; its export is unreachable",
					SuggestedFix: "delete the export or import the library from a .cconf",
				})
			}
		}
	},
}

// ImpureConstruct warns on assignments that escape their call scope: a
// def or validator that writes state outside its call (or a top-level
// rebind of an imported name or builtin), so what a config gets from the
// module depends on call order.
var ImpureConstruct = &Analyzer{
	Name: "impure-construct",
	Doc: "warn on assignments that escape their call scope, making " +
		"results depend on call order",
	Run: func(pass *Pass) {
		for _, site := range cdl.ImpureAssignments(pass.Module) {
			pass.Report(Diagnostic{
				Pos: site.Pos, End: site.End,
				Severity: Warn,
				Message: fmt.Sprintf(
					"assignment to %q escapes its call scope; results depend on call order", site.Name),
				SuggestedFix: fmt.Sprintf("bind a fresh name instead: let %s = ...;", site.Name),
			})
		}
	},
}

// DeprecatedSitevar warns on references to sitevars the operator has
// marked deprecated — `sitevar("name")` calls and imports under
// "sitevars/" — carrying the configured replacement note.
var DeprecatedSitevar = &Analyzer{
	Name: "deprecated-sitevar",
	Doc: "warn on sitevar(\"name\") calls and sitevars/ imports that " +
		"reference a sitevar marked deprecated",
	Run: func(pass *Pass) {
		if len(pass.DeprecatedSitevars) == 0 {
			return
		}
		cdl.WalkStmts(pass.Module.Stmts, func(e cdl.Expr) {
			call, ok := e.(*cdl.CallExpr)
			if !ok || len(call.Args) == 0 {
				return
			}
			fn, ok := call.Fn.(*cdl.IdentExpr)
			if !ok || fn.Name != "sitevar" {
				return
			}
			lit, ok := call.Args[0].(*cdl.LitExpr)
			if !ok {
				return
			}
			name, ok := lit.Val.(cdl.Str)
			if !ok {
				return
			}
			note, deprecated := pass.DeprecatedSitevars[string(name)]
			if !deprecated {
				return
			}
			pass.Reportf(Warn, cdl.ExprPos(call), cdl.ExprEnd(call),
				"sitevar %q is deprecated: %s", string(name), note)
		})
		for _, imp := range pass.Module.Imports {
			if !strings.HasPrefix(imp.Path, "sitevars/") {
				continue
			}
			base := strings.TrimPrefix(imp.Path, "sitevars/")
			if i := strings.LastIndexByte(base, '.'); i >= 0 {
				base = base[:i]
			}
			if note, deprecated := pass.DeprecatedSitevars[base]; deprecated {
				pass.Reportf(Warn, imp.PathPos, imp.PathEnd,
					"sitevar %q is deprecated: %s", base, note)
			}
		}
	},
}
