package dataflow

import (
	"sort"
	"strings"

	"configerator/internal/cdl"
)

// declSite is one assignment reaching a top-level name: a let/def/assign
// statement, recorded with the value's literal fingerprint (when the value
// is a pure literal tree), the names it references, and the external
// origins (sitevar/gatekeeper/env sites) it reads.
type declSite struct {
	path     string
	pos, end cdl.Pos
	// fp is the canonical fingerprint of a pure-literal value; "" means
	// the value is opaque (computed), so two opaque sites are assumed to
	// conflict.
	fp   string
	refs []string
	exts []Origin
}

// binding collects every site assigning one top-level name across a
// module's import closure, in execution (merge) order: the last site wins,
// mirroring the evaluator's last-bind-wins import semantics.
type binding struct {
	sites []declSite
}

func (b *binding) win() *declSite { return &b.sites[len(b.sites)-1] }

// exportRec is one export statement execution in the closure, in order;
// the last one wins.
type exportRec struct {
	path     string
	pos, end cdl.Pos
	fp       string
	refs     []string
	exts     []Origin
	// fields maps exported field name -> provenance slice when the export
	// value is a struct/map literal; nil otherwise.
	fields map[string]fieldRec
}

type fieldRec struct {
	pos, end cdl.Pos
	fp       string
	refs     []string
	exts     []Origin
}

// summary is the memoized per-module digest the three passes query. It
// describes the module's *merged* view: its own statements plus everything
// imported, exactly the environment the evaluator would build. Summaries
// are immutable once built (the index memo and every snapshot derived from
// one that holds them share them), so merging copies instead of mutating.
type summary struct {
	path string
	// bindings: top-level name -> all assignment sites in the closure.
	bindings map[string]*binding
	// exports: every export execution in the closure, execution order.
	exports []exportRec
	// consumers: external-input reference sites in THIS module only
	// (closure consumers are gathered through reach at query time).
	consumers []ConsumerSite
	// reach: every file in the import closure, including the module itself.
	reach map[string]bool
	// err records a read/parse failure (the summary is then a stub).
	err string
}

// build composes a fresh summary: parse the module, then fold statements
// in execution order, merging each import's (recursively summarized)
// closure at its import site.
func (b *builder) build(path string) *summary {
	s := &summary{
		path:     path,
		bindings: make(map[string]*binding),
		reach:    map[string]bool{path: true},
	}
	src, err := b.read(path)
	if err != nil {
		s.err = err.Error()
		return s
	}
	mod, err := b.parse(path, src)
	if err != nil {
		s.err = err.Error()
		return s
	}

	// A module under sitevars/ or gatekeeper/ *is* an external input: every
	// binding it declares carries that input's origin, so importers see
	// "sitevar ratelimit" and not just "module sitevars/ratelimit.cinc".
	var selfExt []Origin
	if kind, name := pathOrigin(path); kind != "" {
		selfExt = []Origin{{Kind: kind, Name: name,
			Site: siteRef(cdl.Pos{File: path, Line: 1, Col: 1})}}
	}

	// seenSites/seenExports dedup diamond imports: a module reached through
	// two paths executes once, so its sites merge once.
	seenSites := make(map[string]bool)
	seenExports := make(map[string]bool)

	addSite := func(name string, site declSite) {
		k := site.path + "\x00" + site.pos.String()
		if seenSites[name+"\x00"+k] {
			return
		}
		seenSites[name+"\x00"+k] = true
		bd := s.bindings[name]
		if bd == nil {
			bd = &binding{}
			s.bindings[name] = bd
		}
		bd.sites = append(bd.sites, site)
	}
	addExport := func(rec exportRec) {
		k := rec.path + "\x00" + rec.pos.String()
		if seenExports[k] {
			return
		}
		seenExports[k] = true
		s.exports = append(s.exports, rec)
	}

	// walk folds one statement block. condRefs/condExts carry the guard
	// context of enclosing if/for statements: a conditional assignment's
	// value also depends on whatever the condition reads.
	var walk func(stmts []cdl.Stmt, topLevel bool, condRefs []string, condExts []Origin)
	walk = func(stmts []cdl.Stmt, topLevel bool, condRefs []string, condExts []Origin) {
		for _, st := range stmts {
			switch t := st.(type) {
			case *cdl.ImportStmt:
				dep := b.summarize(t.Path)
				for f := range dep.reach {
					s.reach[f] = true
				}
				// Merge the import's bindings: its sites append after any
				// existing ones, so the import wins — last-bind-wins.
				names := make([]string, 0, len(dep.bindings))
				for name := range dep.bindings {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					for _, site := range dep.bindings[name].sites {
						addSite(name, site)
					}
				}
				for _, rec := range dep.exports {
					addExport(rec)
				}
			case *cdl.LetStmt:
				if !topLevel {
					// A nested let is block-scoped: it cannot bind a
					// top-level name.
					continue
				}
				refs, exts := exprFacts(t.Value)
				addSite(t.Name, declSite{
					path: path, pos: t.NamePos, end: t.NameEnd,
					fp:   litFingerprint(t.Value),
					refs: append(refs, condRefs...),
					exts: append(append(exts, condExts...), selfExt...),
				})
			case *cdl.AssignStmt:
				// Assignment rebinds an enclosing name; conservatively
				// treat any assignment as a site for the top-level name.
				refs, exts := exprFacts(t.Value)
				fp := litFingerprint(t.Value)
				if len(condRefs) > 0 {
					fp = "" // conditional: value depends on the guard
				}
				addSite(t.Name, declSite{
					path: path, pos: cdl.StmtPos(st), end: cdl.StmtEnd(st),
					fp:   fp,
					refs: append(refs, condRefs...),
					exts: append(append(exts, condExts...), selfExt...),
				})
			case *cdl.DefStmt:
				if !topLevel {
					continue
				}
				refs, exts := bodyFacts(t.Body)
				addSite(t.Name, declSite{
					path: path, pos: t.NamePos, end: t.NameEnd,
					refs: append(refs, condRefs...),
					exts: append(append(exts, condExts...), selfExt...),
				})
			case *cdl.ExportStmt:
				refs, exts := exprFacts(t.Value)
				fp := litFingerprint(t.Value)
				if len(condRefs) > 0 {
					fp = ""
				}
				rec := exportRec{
					path: path, pos: cdl.StmtPos(st), end: cdl.StmtEnd(st),
					fp:     fp,
					refs:   append(refs, condRefs...),
					exts:   append(append(exts, condExts...), selfExt...),
					fields: exportFields(t.Value, condRefs, condExts, selfExt),
				}
				addExport(rec)
			case *cdl.IfStmt:
				refs, exts := exprFacts(t.Cond)
				cr := append(append([]string{}, condRefs...), refs...)
				ce := append(append([]Origin{}, condExts...), exts...)
				walk(t.Then, false, cr, ce)
				walk(t.Else, false, cr, ce)
			case *cdl.ForStmt:
				refs, exts := exprFacts(t.Seq)
				cr := append(append([]string{}, condRefs...), refs...)
				ce := append(append([]Origin{}, condExts...), exts...)
				walk(t.Body, false, cr, ce)
			}
			// Validators and asserts can fail a compile but cannot alter a
			// value; defs' bodies are folded at the def site.
		}
	}
	walk(mod.Stmts, true, nil, nil)

	// Consumer sites: every external-input reference in this module.
	collectExts(mod, func(o Origin) {
		s.consumers = append(s.consumers, ConsumerSite{Kind: o.Kind, Name: o.Name, Site: o.Site})
	})
	sort.Slice(s.consumers, func(i, j int) bool {
		a, c := s.consumers[i], s.consumers[j]
		if a.Site.Line != c.Site.Line {
			return a.Site.Line < c.Site.Line
		}
		if a.Site.Col != c.Site.Col {
			return a.Site.Col < c.Site.Col
		}
		return a.Name < c.Name
	})
	return s
}

func (b *builder) parse(path string, src []byte) (*cdl.Module, error) {
	if b.ix.engine != nil {
		return b.ix.engine.ParseCached(path, src)
	}
	return cdl.Parse(path, string(src))
}

// exportFields maps an exported struct/map literal's fields to their
// provenance slices, so `configlint why <artifact> <field>` can answer at
// field granularity. Dynamic keys fold into the "<dynamic>" field.
func exportFields(v cdl.Expr, condRefs []string, condExts, selfExt []Origin) map[string]fieldRec {
	mk := func(name string, val cdl.Expr) (string, fieldRec) {
		refs, exts := exprFacts(val)
		return name, fieldRec{
			pos: cdl.ExprPos(val), end: cdl.ExprEnd(val),
			fp:   litFingerprint(val),
			refs: append(refs, condRefs...),
			exts: append(append(exts, condExts...), selfExt...),
		}
	}
	switch e := v.(type) {
	case *cdl.MapExpr:
		out := make(map[string]fieldRec, len(e.Keys))
		for i, k := range e.Keys {
			name := "<dynamic>"
			if lit, ok := k.(*cdl.LitExpr); ok {
				if s, err := cdl.MarshalJSON(lit.Val); err == nil {
					name = strings.Trim(s, `"`)
				}
			}
			n, rec := mk(name, e.Values[i])
			out[n] = rec
		}
		return out
	case *cdl.StructExpr:
		out := make(map[string]fieldRec, len(e.Names))
		for i, name := range e.Names {
			n, rec := mk(name, e.Values[i])
			out[n] = rec
		}
		return out
	}
	return nil
}

// ---- expression facts ----

// exprFacts returns every identifier referenced in the expression and
// every external-input call site in it. References are collected without
// local-scope tracking: a def parameter shadowing a top-level name
// over-approximates, which is the safe direction for provenance.
func exprFacts(x cdl.Expr) (refs []string, exts []Origin) {
	seen := make(map[string]bool)
	cdl.WalkExpr(x, func(e cdl.Expr) {
		switch t := e.(type) {
		case *cdl.IdentExpr:
			if !seen[t.Name] {
				seen[t.Name] = true
				refs = append(refs, t.Name)
			}
		case *cdl.CallExpr:
			if o, ok := extCall(t); ok {
				exts = append(exts, o)
			}
		}
	})
	return refs, exts
}

// bodyFacts is exprFacts over a statement block (a def body).
func bodyFacts(stmts []cdl.Stmt) (refs []string, exts []Origin) {
	seen := make(map[string]bool)
	cdl.WalkStmts(stmts, func(e cdl.Expr) {
		switch t := e.(type) {
		case *cdl.IdentExpr:
			if !seen[t.Name] {
				seen[t.Name] = true
				refs = append(refs, t.Name)
			}
		case *cdl.CallExpr:
			if o, ok := extCall(t); ok {
				exts = append(exts, o)
			}
		}
	})
	return refs, exts
}

// extCall recognizes sitevar("x") / gatekeeper("x") / env("X") calls.
func extCall(c *cdl.CallExpr) (Origin, bool) {
	fn, ok := c.Fn.(*cdl.IdentExpr)
	if !ok {
		return Origin{}, false
	}
	kind, ok := extKinds[fn.Name]
	if !ok || len(c.Args) == 0 {
		return Origin{}, false
	}
	name := "<dynamic>"
	if lit, ok := c.Args[0].(*cdl.LitExpr); ok {
		if s, err := cdl.MarshalJSON(lit.Val); err == nil && strings.HasPrefix(s, `"`) {
			name = strings.Trim(s, `"`)
		}
	}
	return Origin{Kind: kind, Name: name, Site: siteRef(cdl.ExprPos(c))}, true
}

// collectExts reports every external-input site in a module: calls
// anywhere in it, plus sitevars// gatekeeper/ imports.
func collectExts(mod *cdl.Module, fn func(Origin)) {
	for _, imp := range mod.Imports {
		if kind, name := pathOrigin(imp.Path); kind != "" {
			fn(Origin{Kind: kind, Name: name, Site: siteRef(imp.PathPos)})
		}
	}
	cdl.WalkStmts(mod.Stmts, func(e cdl.Expr) {
		if c, ok := e.(*cdl.CallExpr); ok {
			if o, ok := extCall(c); ok {
				fn(o)
			}
		}
	})
}

// litFingerprint canonicalizes a pure-literal expression tree; "" means
// the value is computed (opaque). Two sites with equal non-empty
// fingerprints provably assign the same value, so they never conflict.
func litFingerprint(x cdl.Expr) string {
	switch e := x.(type) {
	case *cdl.LitExpr:
		s, err := cdl.MarshalJSON(e.Val)
		if err != nil {
			return ""
		}
		return s
	case *cdl.ListExpr:
		parts := make([]string, 0, len(e.Elems))
		for _, el := range e.Elems {
			fp := litFingerprint(el)
			if fp == "" {
				return ""
			}
			parts = append(parts, fp)
		}
		return "[" + strings.Join(parts, ",") + "]"
	case *cdl.MapExpr:
		parts := make([]string, 0, len(e.Keys))
		for i := range e.Keys {
			kf, vf := litFingerprint(e.Keys[i]), litFingerprint(e.Values[i])
			if kf == "" || vf == "" {
				return ""
			}
			parts = append(parts, kf+":"+vf)
		}
		sort.Strings(parts)
		return "{" + strings.Join(parts, ",") + "}"
	case *cdl.UnaryExpr:
		fp := litFingerprint(e.X)
		if fp == "" {
			return ""
		}
		return e.Op + fp
	}
	return ""
}
