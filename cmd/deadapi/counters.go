package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// writeOnlyNames lists the counter and histogram names that code under
// internal/ passes to obs.Registry.Add or obs.Registry.Observe as a constant
// and that nothing else in the module names: an instrument nobody reads.
//
// A use is the same string anywhere in the module's .go files, tests and
// bench/ included, outside the name argument of an Add or Observe call: as a
// literal, or as a constant declared with that literal and named elsewhere
// (obs.HistHopObserverProxy, monitor.HistTimeToHead). The read scan parses
// files without types, so any method called Add or Observe counts as a write
// when its first argument is a string literal or a plain name; any other
// first argument is scanned, so atomic's n.Add(r.Get("x")) reads "x".
// Constants are matched by name, so two that share a name share their uses;
// that can hide a write-only name, never invent one. Names built at run time
// ("fault."+kind, "stage."+name) are skipped: no constant names them. Writes
// to a component's own obs.Counters set (cdl.Engine's cache counters) are
// not Registry writes and are not checked: the set's Table renders it whole.
//
// A reader of a whole Counters().Snapshot() (the cluster app-model
// differential compares two) names no counter, so it reads none here: a
// name this check condemns may still narrow such a test, which must then
// compare the event some other way (a component field).
func (l *loader) writeOnlyNames() ([]string, error) {
	reg := l.pkgs[module+"/internal/obs"].Scope().Lookup("Registry")
	writers := map[types.Object]bool{}
	for _, m := range []string{"Add", "Observe"} {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(reg.Type()), false, reg.Pkg(), m)
		writers[obj] = true
	}
	written := map[string]token.Pos{} // name → its first write
	for path, files := range l.files {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && writers[l.info.Uses[sel.Sel]] {
						if v := l.info.Types[call.Args[0]].Value; v != nil && v.Kind() == constant.String {
							name := constant.StringVal(v)
							if p, ok := written[name]; !ok || call.Pos() < p {
								written[name] = call.Pos()
							}
						}
					}
				}
				return true
			})
		}
	}

	lits, idents := map[string]bool{}, map[string]bool{}
	consts := map[string][]string{} // constant name → the literals it is declared with
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GenDecl:
			if n.Tok != token.CONST {
				return true
			}
			for _, s := range n.Specs {
				vs := s.(*ast.ValueSpec)
				for i, v := range vs.Values {
					if lit, ok := stringLit(v); ok {
						consts[vs.Names[i].Name] = append(consts[vs.Names[i].Name], lit)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) > 0 &&
				(sel.Sel.Name == "Add" || sel.Sel.Name == "Observe") && isName(n.Args[0]) {
				ast.Inspect(n.Fun, visit)
				for _, a := range n.Args[1:] {
					ast.Inspect(a, visit)
				}
				return false
			}
		case *ast.BasicLit:
			if s, ok := stringLit(n); ok {
				lits[s] = true
			}
		case *ast.Ident:
			idents[n.Name] = true
		}
		return true
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for name, vals := range consts {
		if idents[name] {
			for _, v := range vals {
				lits[v] = true
			}
		}
	}

	var bad []string
	for name, at := range written {
		if !lits[name] {
			pos := l.fset.Position(at)
			bad = append(bad, fmt.Sprintf("%s:%d: %q is written to the obs registry and read nowhere; delete the write, or read it", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(bad)
	return bad, nil
}

// isName reports whether e is a string literal or a plain name, the form of
// an instrument name in an Add or Observe call.
func isName(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Kind == token.STRING
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		_, ok := e.X.(*ast.Ident)
		return ok
	}
	return false
}

// stringLit returns the value of a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
