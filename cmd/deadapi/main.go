// Command deadapi fails when a function under internal/ is referenced by no
// non-test file in the module — a capability only its own unit tests call —
// or an option under internal/ is set by none (see unsetOptions), unless
// allow.txt beside this file names it with a reason. A function entry whose
// reason cites a paper section (§) fails too: a paper feature needs a product
// path, not a line here. Run from the module root (`make vet` does).
//
// Standard library only: every package in the module is parsed without its
// tests and type-checked in one universe, so an object used in one package is
// the object declared in another. Methods that satisfy an interface declared
// in the module, or sort.Interface, heap.Interface, the json and text
// marshalers, fmt.Stringer or error, are reached through the interface and
// are skipped.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const (
	module    = "configerator"
	allowFile = "cmd/deadapi/allow.txt"
)

// loader type-checks module packages from source on demand and everything
// else through the standard source importer.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, module)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution|parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(1)
	}
}

// load type-checks every package of the module, from its root, into one
// universe.
func load() (*loader, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) == 0 {
			return nil
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join(module, path)))
		return err
	})
	return l, err
}

func run() error {
	l, err := load()
	if err != nil {
		return err
	}

	// Every function an identifier outside its own declaration refers to.
	used := map[*types.Func]bool{}
	var decls []*ast.FuncDecl
	for path, files := range l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				fd, isFunc := d.(*ast.FuncDecl)
				if isFunc && strings.HasPrefix(path, module+"/internal/") {
					decls = append(decls, fd)
				}
				var self types.Object
				if isFunc {
					self = l.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := l.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	ifaces, err := l.interfaces()
	if err != nil {
		return err
	}
	allow, err := readAllow()
	if err != nil {
		return err
	}
	var bad []string
	for _, fd := range decls {
		fn := l.info.Defs[fd.Name].(*types.Func)
		if used[fn] || fn.Name() == "init" || satisfies(fn, ifaces) {
			continue
		}
		name := fn.FullName()
		if reason, ok := allow[name]; ok {
			delete(allow, name)
			if strings.Contains(reason, "§") {
				bad = append(bad, fmt.Sprintf("%s: %s cites a paper section (%s); a paper feature needs a non-test caller, not an allow-list line", allowFile, name, reason))
			}
			continue
		}
		pos, end := l.fset.Position(fd.Pos()), l.fset.Position(fd.End())
		bad = append(bad, fmt.Sprintf("%s:%d: %s (%d lines) is referenced by no non-test file", pos.Filename, pos.Line, name, end.Line-pos.Line+1))
	}
	bad = append(bad, l.unsetOptions(allow)...)
	writeOnly, err := l.writeOnlyNames()
	if err != nil {
		return err
	}
	bad = append(bad, writeOnly...)
	for name := range allow {
		bad = append(bad, fmt.Sprintf("%s: %s is listed but is not an unreferenced function or an unset option; remove the entry", allowFile, name))
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("%d findings\n%s", len(bad), strings.Join(bad, "\n"))
	}
	return nil
}

// interfaces returns the interface types a method may be called through
// without its name appearing: the module's own and the standard ones above.
func (l *loader) interfaces() ([]*types.Interface, error) {
	var out []*types.Interface
	add := func(scope *types.Scope, names ...string) {
		if names == nil {
			names = scope.Names()
		}
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	for _, p := range l.pkgs {
		add(p.Scope())
	}
	add(types.Universe, "error")
	for path, names := range map[string][]string{
		"sort":           {"Interface"},
		"container/heap": {"Interface"},
		"encoding/json":  {"Marshaler", "Unmarshaler"},
		"encoding":       {"TextMarshaler", "TextUnmarshaler"},
		"fmt":            {"Stringer"},
	} {
		p, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		add(p.Scope(), names...)
	}
	return out, nil
}

// satisfies reports whether fn is a method that one of ifaces declares and
// fn's receiver type implements.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}

// unsetOptions lists the exported option fields under internal/ that no
// non-test file outside their package sets — by composite literal, by
// assignment or through their address, a pointer method's call included — and
// that allow does not name as "<package path>.<Type>.<Field>". A field is an
// option when only a caller can give it a value other than a default: nothing
// in its own package sets it, or its struct is what an exported constructor of
// the package (a function returning a pointer) takes by value. A field with a
// struct tag is set by a decoder and is skipped.
func (l *loader) unsetOptions(allow map[string]string) []string {
	inside, outside := map[*types.Var]bool{}, map[*types.Var]bool{}
	mark := func(obj types.Object, pkg string) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != nil {
			inside[v.Origin()] = true
			outside[v.Origin()] = outside[v.Origin()] || v.Pkg().Path() != pkg
		}
	}
	byValue := map[types.Type]bool{} // what the constructors take
	var structs []*types.Named
	for path, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var set []ast.Expr
				switch n := n.(type) {
				case *ast.TypeSpec:
					if named, ok := l.info.Defs[n.Name].Type().(*types.Named); ok && strings.HasPrefix(path, module+"/internal/") {
						structs = append(structs, named)
					}
				case *ast.FuncDecl:
					fn := l.info.Defs[n.Name].(*types.Func)
					sig := fn.Type().(*types.Signature)
					if !fn.Exported() || sig.Recv() != nil || sig.Results().Len() == 0 {
						break
					}
					if _, ok := sig.Results().At(0).Type().(*types.Pointer); ok {
						for i := 0; i < sig.Params().Len(); i++ {
							byValue[sig.Params().At(i).Type()] = true
						}
					}
				case *ast.CompositeLit:
					t := l.info.TypeOf(n)
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem() // &T elided inside []*T{{...}}
					}
					st, _ := t.Underlying().(*types.Struct)
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							set = append(set, kv.Key)
						} else if st != nil {
							mark(st.Field(i), path)
						}
					}
				case *ast.AssignStmt:
					set = n.Lhs
				case *ast.IncDecStmt:
					set = []ast.Expr{n.X}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						set = []ast.Expr{n.X}
					}
				case *ast.SelectorExpr:
					// x.F.M with a pointer receiver takes &x.F (an atomic
					// counter's Add).
					if fn, ok := l.info.Uses[n.Sel].(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							_, ptrRecv := recv.Type().(*types.Pointer)
							_, ptrX := l.info.TypeOf(n.X).Underlying().(*types.Pointer)
							if ptrRecv && !ptrX {
								set = []ast.Expr{n.X}
							}
						}
					}
				}
				for _, e := range set {
					if ix, ok := e.(*ast.IndexExpr); ok {
						e = ix.X // an entry of a map or slice field
					}
					switch e := e.(type) {
					case *ast.Ident:
						mark(l.info.Uses[e], path)
					case *ast.SelectorExpr:
						mark(l.info.Uses[e.Sel], path)
					}
				}
				return true
			})
		}
	}
	var bad []string
	for _, named := range structs {
		st, _ := named.Underlying().(*types.Struct)
		for i := 0; st != nil && i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || f.Embedded() || st.Tag(i) != "" || outside[f] || inside[f] && !byValue[named] {
				continue
			}
			name := fmt.Sprintf("%s.%s.%s", f.Pkg().Path(), named.Obj().Name(), f.Name())
			if _, ok := allow[name]; ok {
				delete(allow, name)
				continue
			}
			pos := l.fset.Position(f.Pos())
			bad = append(bad, fmt.Sprintf("%s:%d: option %s is set by no non-test file outside its package", pos.Filename, pos.Line, name))
		}
	}
	return bad
}

// numberedItem is a ROADMAP item cited by number. Items are renumbered at
// every re-anchor, so allow.txt cites them by their [tag].
var numberedItem = regexp.MustCompile(`ROADMAP item \d+`)

// readAllow reads allow.txt: one "<function full name><tab><reason>" a line,
// '#' comments and blank lines skipped. An entry without a reason is an
// error, and so is a line citing a ROADMAP item by number.
func readAllow() (map[string]string, error) {
	f, err := os.Open(allowFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if cite := numberedItem.FindString(line); cite != "" {
			return nil, fmt.Errorf("%s:%d: cites %q; cite the item's [tag] instead", allowFile, n, cite)
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, "\t")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", allowFile, n, name)
		}
		allow[strings.TrimSpace(name)] = reason
	}
	return allow, sc.Err()
}
