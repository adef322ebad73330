package main

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// docFiles are the documents whose references must resolve. bench/README.md
// and the bench package belong to the benchmark's own changes; ROADMAP.md and
// CHANGES.md hold plans and history.
var docFiles = []string{"DESIGN.md", "README.md"}

// prose is the short list of CamelCase words package comments use as names of
// things, not identifiers.
var prose = map[string]bool{"PackageVessel": true, "MobileConfig": true, "ZooKeeper": true, "BitTorrent": true,
	"MapReduce": true, "Phabricator": true, "Sandcastle": true}

// TestDocReferencesResolve holds DESIGN.md, README.md, every package comment
// and every allow.txt reason to the code: each reference in them must name
// something that exists. A reference is a Go name (`pkg.Name`, `Type.Member`,
// a bare name, a call), a test, benchmark or fuzz target, a file path, a make
// target, a `go run` command with its flags, a `configerator` or `configlint`
// subcommand, a ROADMAP [tag], or a metric or counter name. In markdown a
// reference is a backticked span, or a command line of a sh block; in a Go
// comment it is a backticked span, a doc link, or a word shaped like one of
// the above. A "DESIGN.md §N" in the docs or in any Go comment outside bench/
// must name a section.
func TestDocReferencesResolve(t *testing.T) {
	x := loadIndex(t)
	var bad []string
	for _, name := range docFiles {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		bad = append(bad, x.checkMarkdown(name, string(text))...)
	}
	bad = append(bad, x.checkComments()...)
	for p := range x.paths {
		if strings.HasSuffix(p, ".go") && !strings.HasPrefix(p, "bench/") {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(src), "\n")
			for i, l := range lines {
				if !strings.HasPrefix(strings.TrimSpace(l), "//") {
					lines[i] = "" // a section is cited in comments
				}
			}
			bad = append(bad, x.checkSections(p, strings.Join(lines, "\n"))...)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// TestDocReferencesReportEachKind feeds the check a document with one broken
// reference of each kind beside a good one, and requires exactly the broken
// ones back.
func TestDocReferencesReportEachKind(t *testing.T) {
	x := loadIndex(t)
	const name = "cmd/deadapi/testdata/refs.md"
	text, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, b := range x.checkMarkdown(name, string(text)) {
		got[b] = true
	}
	for _, want := range []string{
		name + ":3: `workload.RepoGrowth` (Go name) does not resolve",
		name + ":4: `TestMapAliasingRegression` (test) does not resolve",
		name + ":5: `internal/zeus/nosuch.go` (file) does not resolve",
		name + ":6: `make nosuch` (make target) does not resolve",
		name + ":7: `go run ./cmd/benchreport -nosuch` (command) does not resolve",
		name + ":8: `configerator nosuch` (command) does not resolve",
		name + ":9: `[nosuch]` (ROADMAP tag) does not resolve",
		name + ":10: `cdl.nosuch_ms` (metric) does not resolve",
		name + ":11: `nosuch.<name>` (constructed name) does not resolve",
		name + ":12: `-nosuch` (flag) does not resolve",
		name + ":13: `DESIGN.md §99` (DESIGN section) does not resolve",
		name + ":16: `Map` (Go name) does not resolve",
		name + ":17: `Strings` (Go name) does not resolve",
		name + ":21: `go run ./bench -nosuch 1` (command) does not resolve",
	} {
		if !got[want] {
			t.Errorf("not reported: %s", want)
		}
		delete(got, want)
	}
	for b := range got {
		t.Errorf("reported, though it resolves: %s", b)
	}

	// In a Go comment a reference is a word shaped like one: two from the
	// confclient package comment as it stood, neither of which resolves
	// there.
	refs := x.commentRefs(" allocations (BenchmarkGet asserts it), safe from any goroutine. The accessors (Strings) copy.")
	if strings.Join(refs, " ") != "BenchmarkGet Strings" {
		t.Errorf("comment references = %q, want BenchmarkGet and Strings", refs)
	}
	for _, r := range refs {
		if _, ok := x.resolve(r, x.pkgs["confclient"]); ok {
			t.Errorf("%s resolves in package confclient", r)
		}
	}
}

var refIndex struct {
	once sync.Once
	x    *docIndex
	err  error
}

// loadIndex loads the universe once, from the module root, where `make vet`
// runs deadapi. The move happens inside a test, so that go test's cache sees
// the files the check reads.
func loadIndex(t *testing.T) *docIndex {
	t.Helper()
	refIndex.once.Do(func() {
		if refIndex.err = os.Chdir("../.."); refIndex.err == nil {
			refIndex.x, refIndex.err = newDocIndex()
		}
	})
	if refIndex.err != nil {
		t.Fatal(refIndex.err)
	}
	return refIndex.x
}

// docIndex is what a reference can resolve against.
type docIndex struct {
	l     *loader
	pkgs  map[string][]*types.Package  // by name: the module's and the standard ones it imports
	named map[string][]*types.TypeName // the module's named types by name
	names map[string]bool              // every name the module declares: package-level, method or field
	lits  map[string]bool              // every string literal in the module
	strs  map[string]map[string]bool   // string literals by package directory
	flags map[string]map[string]bool   // flag names by command directory
	tests map[string]map[string]bool   // test, benchmark and fuzz functions → their packages' names
	paths map[string]bool              // every file and directory, and every imported package path

	targets, tags, metrics map[string]bool // Makefile targets, ROADMAP tags, BENCHMARK.json names
	sections               map[string]bool // DESIGN.md's numbered sections
}

func newDocIndex() (*docIndex, error) {
	l, err := load()
	if err != nil {
		return nil, err
	}
	x := &docIndex{l: l, pkgs: map[string][]*types.Package{}, named: map[string][]*types.TypeName{},
		names: map[string]bool{}, lits: map[string]bool{}, strs: map[string]map[string]bool{}, flags: map[string]map[string]bool{},
		tests: map[string]map[string]bool{}, paths: map[string]bool{}, targets: map[string]bool{},
		tags: map[string]bool{}, metrics: map[string]bool{}, sections: map[string]bool{}}
	std := map[string]*types.Package{}
	for _, p := range l.pkgs {
		x.pkgs[p.Name()] = append(x.pkgs[p.Name()], p)
		for _, imp := range p.Imports() {
			if imp.Path() != module && !strings.HasPrefix(imp.Path(), module+"/") {
				std[imp.Path()] = imp
			}
		}
		for _, name := range p.Scope().Names() {
			x.names[name] = true
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			x.named[name] = append(x.named[name], tn)
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					x.names[named.Method(i).Name()] = true
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					x.names[st.Field(i).Name()] = true
				}
			}
		}
	}
	for path, p := range std {
		x.pkgs[p.Name()] = append(x.pkgs[p.Name()], p)
		x.paths[path] = true
	}
	for path, files := range l.files {
		dir := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		x.strs[dir], x.flags[dir] = map[string]bool{}, map[string]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
						x.lits[s], x.strs[dir][s] = true, true
					}
				case *ast.CallExpr:
					if name := flagName(l.info, n); name != "" {
						x.flags[dir][name] = true
					}
				}
				return true
			})
		}
	}

	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	pkgClause := regexp.MustCompile(`(?m)^package (\w+)`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != "." && d.Name()[0] == '.' {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		x.paths[filepath.ToSlash(path)] = true
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := ""
		if m := pkgClause.FindSubmatch(src); m != nil {
			pkg = strings.TrimSuffix(string(m[1]), "_test")
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			if x.tests[string(m[1])] == nil {
				x.tests[string(m[1])] = map[string]bool{}
			}
			x.tests[string(m[1])][pkg] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, f := range []struct {
		name string
		re   *regexp.Regexp
		set  map[string]bool
	}{
		{"Makefile", regexp.MustCompile(`(?m)^([\w-]+):`), x.targets},
		{"ROADMAP.md", regexp.MustCompile(`\*\*\[([a-z0-9-]+)\]`), x.tags},
		{"DESIGN.md", regexp.MustCompile(`(?m)^## (\d+)\.`), x.sections},
	} {
		src, err := os.ReadFile(f.name)
		if err != nil {
			return nil, err
		}
		for _, m := range f.re.FindAllSubmatch(src, -1) {
			f.set[string(m[1])] = true
		}
	}
	src, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type named []struct{ Name string }
	var spec struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal(src, &spec); err != nil {
		return nil, err
	}
	for _, list := range []named{spec.Workloads, spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			x.metrics[m.Name] = true
		}
	}
	return x, nil
}

// flagConstructors are the flag package's functions and FlagSet methods that
// define a flag; the ones ending in Var take the name second.
var flagConstructors = map[string]bool{"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true,
	"DurationVar": true, "Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true, "Uint": true,
	"UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true}

// flagName returns the name of the flag call defines, or "".
func flagName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagConstructors[fn.Name()] {
		return ""
	}
	i := 0
	if strings.HasSuffix(fn.Name(), "Var") {
		i = 1
	}
	if i >= len(call.Args) {
		return ""
	}
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok {
		return ""
	}
	name, _ := strconv.Unquote(lit.Value)
	return name
}

var (
	backticks = regexp.MustCompile("`([^`]+)`")
	tagRef    = regexp.MustCompile(`^\[[a-z][a-z0-9-]*\]$`)
	testRef   = regexp.MustCompile(`^(?:([a-z]\w*)\.)?((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)$`)
	callRef   = regexp.MustCompile(`^([A-Za-z_][\w.]*)\(.*\)$`)
	nameRef   = regexp.MustCompile(`^[A-Za-z_][\w-]*(?:[./][\w<>*-]+)*(?::\d+)?/?$`)
	fileRef   = regexp.MustCompile(`\.(go|md|json|txt|golden|cconf|cinc|mod)(:\d+)?$`)
	metricRef = regexp.MustCompile(`^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$`)
	wordRef   = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)
	pkgRef    = regexp.MustCompile(`^(?:internal/(?:[a-z0-9]+/)*([a-z0-9]+)/?$|(?:internal/(?:[a-z0-9]+/)*)?([a-z][a-z0-9]*)[./])`)
	pathName  = regexp.MustCompile(`^internal/(?:[a-z0-9]+/)*([a-z0-9]+\.[A-Za-z_].*)$`)
)

// resolve reports what kind of reference ref is and whether it resolves; kind
// is "" for a span that is code or a literal rather than a name. A bare name
// resolves in the packages of ctx, or anywhere in the module when ctx is empty.
func (x *docIndex) resolve(ref string, ctx []*types.Package) (kind string, ok bool) {
	fields := strings.Fields(ref)
	switch {
	case len(fields) == 0:
		return "", true
	case fields[0] == "make" && len(fields) > 1:
		for _, target := range fields[1:] {
			if !x.targets[target] {
				return "make target", false
			}
		}
		return "make target", true
	case fields[0] == "go" && len(fields) > 1:
		return "command", x.goCommand(fields[1], fields[2:])
	case (fields[0] == "configerator" || fields[0] == "configlint") && len(fields) > 1:
		return "command", x.subcommand("cmd/"+fields[0], fields[1:])
	case strings.HasPrefix(ref, "-") && len(fields[0]) > 1:
		return "flag", x.anyFlag(fields[0])
	case tagRef.MatchString(ref):
		return "ROADMAP tag", x.tags[ref[1:len(ref)-1]] || x.literalPrefix(ref)
	}
	if m := callRef.FindStringSubmatch(ref); m != nil {
		ref = m[1] // `Get(ctx, path)` cites Get
	}
	ref = strings.TrimPrefix(strings.TrimLeft(ref, "*&"), "[]")
	if !nameRef.MatchString(ref) {
		return "", true
	}
	if m := testRef.FindStringSubmatch(ref); m != nil {
		pkgs := x.tests[m[2]]
		return "test", pkgs != nil && (m[1] == "" || pkgs[m[1]])
	}
	if i := strings.IndexAny(ref, "<*"); i >= 0 {
		return "constructed name", x.literalPrefix(ref[:i])
	}
	if m := pathName.FindStringSubmatch(ref); m != nil && !fileRef.MatchString(ref) {
		ref = m[1] // `internal/obs.Counters` cites obs.Counters
	} else if strings.Contains(ref, "/") || fileRef.MatchString(ref) {
		return "file", x.path(ref)
	}
	if x.goName(ref, ctx) {
		return "Go name", true
	}
	if metricRef.MatchString(ref) {
		return "metric", x.metrics[ref] || x.lits[ref]
	}
	if wordRef.MatchString(ref) {
		return "", true // a word: a value, a label, a role
	}
	return "Go name", false
}

// goName resolves pkg.Name[.Member], Type.Member or a bare name.
func (x *docIndex) goName(ref string, ctx []*types.Package) bool {
	parts := strings.Split(ref, ".")
	if len(parts) > 3 {
		return false
	}
	member := func(obj types.Object, name string) bool {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return false
		}
		found, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
		return found != nil
	}
	for _, p := range x.pkgs[parts[0]] {
		if len(parts) == 1 {
			return true
		}
		if obj := p.Scope().Lookup(parts[1]); obj != nil && (len(parts) == 2 || member(obj, parts[2])) {
			return true
		}
	}
	if len(parts) == 2 {
		for _, tn := range x.named[parts[0]] {
			if member(tn, parts[1]) {
				return true
			}
		}
	}
	if len(parts) != 1 {
		return false
	}
	if len(ctx) == 0 {
		return x.names[ref]
	}
	for _, p := range ctx {
		if obj := p.Scope().Lookup(ref); obj != nil {
			return true
		}
		for _, name := range p.Scope().Names() {
			if member(p.Scope().Lookup(name), ref) {
				return true
			}
		}
	}
	return false
}

// goCommand resolves `go <verb> args`: every ./path must exist, and after the
// command path of `go run` every flag must be one the command defines.
func (x *docIndex) goCommand(verb string, args []string) bool {
	dir := ""
	for _, a := range args {
		a = strings.Trim(a, "[]")
		switch {
		case strings.HasPrefix(a, "./"):
			p := strings.TrimSuffix(strings.TrimPrefix(a, "./"), "/...")
			if p == "" || p == "..." {
				continue
			}
			if !x.paths[p] {
				return false
			}
			if verb == "run" && dir == "" {
				dir = p
			}
		case dir != "" && strings.HasPrefix(a, "-") && len(a) > 1:
			if !defines(x.flags[dir], a) {
				return false
			}
		}
	}
	return true
}

// subcommand resolves `configerator|configlint words... -flags`: each leading
// word is a string the command's package spells out, each flag one it defines.
func (x *docIndex) subcommand(dir string, args []string) bool {
	words := true
	for _, a := range args {
		a = strings.Trim(a, "[]")
		switch {
		case strings.HasPrefix(a, "-") && len(a) > 1:
			words = false
			if !defines(x.flags[dir], a) {
				return false
			}
		case words && wordRef.MatchString(a):
			if !x.strs[dir][a] {
				return false
			}
		default:
			words = false
		}
	}
	return true
}

// goFlags are the go command's own flags the docs cite.
var goFlags = map[string]bool{"race": true, "short": true, "count": true, "run": true, "bench": true,
	"benchmem": true, "benchtime": true, "fuzz": true, "fuzztime": true}

func (x *docIndex) anyFlag(f string) bool {
	if defines(goFlags, f) {
		return true
	}
	for _, flags := range x.flags {
		if defines(flags, f) {
			return true
		}
	}
	return false
}

// defines reports whether flags holds the flag a command-line argument such
// as -o or --seed=42 sets.
func defines(flags map[string]bool, arg string) bool {
	name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
	return flags[name]
}

// path resolves a file or directory, by its path from the root or by a
// trailing part of one; file.go:N must have N lines.
func (x *docIndex) path(p string) bool {
	p = strings.TrimSuffix(p, "/")
	file, line, hasLine := strings.Cut(p, ":")
	for q := range x.paths {
		if q != file && !strings.HasSuffix(q, "/"+file) {
			continue
		}
		if !hasLine {
			return true
		}
		src, err := os.ReadFile(q)
		n, _ := strconv.Atoi(line)
		return err == nil && n <= strings.Count(string(src), "\n")
	}
	return false
}

// cites returns the packages ref names: pkg in `pkg.Name`, or the package
// directory of `internal/pkg`.
func (x *docIndex) cites(ref string) []*types.Package {
	m := pkgRef.FindStringSubmatch(strings.TrimLeft(ref, "*&"))
	if m == nil {
		return nil
	}
	return x.pkgs[m[1]+m[2]]
}

// inModule reports whether name is the name of one of the module's packages.
func (x *docIndex) inModule(name string) bool {
	for _, p := range x.pkgs[name] {
		if strings.HasPrefix(p.Path(), module+"/") {
			return true
		}
	}
	return false
}

// literalPrefix resolves a constructed name by its fixed part: a string
// literal, a metric or a path must start with it.
func (x *docIndex) literalPrefix(prefix string) bool {
	for _, set := range []map[string]bool{x.lits, x.metrics, x.paths} {
		for s := range set {
			if strings.HasPrefix(s, prefix) {
				return true
			}
		}
	}
	return false
}

// checkMarkdown returns a line for each reference in text that does not
// resolve. A bare name resolves in the packages its paragraph cites, or
// anywhere when the paragraph cites none.
func (x *docIndex) checkMarkdown(name, text string) []string {
	var bad []string
	var refs []string
	var at []int
	flush := func() {
		var ctx []*types.Package
		for _, r := range refs {
			ctx = append(ctx, x.cites(r)...)
		}
		for i, r := range refs {
			if kind, ok := x.resolve(r, ctx); !ok {
				bad = append(bad, name+":"+strconv.Itoa(at[i])+": `"+r+"` ("+kind+") does not resolve")
			}
		}
		refs, at = nil, nil
	}
	var para []string // the lines of the current paragraph
	first := 0        // its first line number
	spans := func() {
		joined := strings.Join(para, "\n")
		for _, m := range backticks.FindAllStringSubmatchIndex(joined, -1) {
			// A span may wrap: it is one reference, at the line it starts on.
			refs = append(refs, strings.Join(strings.Fields(joined[m[2]:m[3]]), " "))
			at = append(at, first+strings.Count(joined[:m[0]], "\n"))
		}
		para = nil
	}
	fenced, sh := false, false
	for i, l := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(l)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			spans()
			flush()
			fenced, sh = !fenced, trimmed == "```sh"
		case fenced:
			if cmd := shCommand(l); sh && cmd != "" {
				refs, at = append(refs, cmd), append(at, i+1)
			}
		case trimmed == "":
			spans()
			flush()
		default:
			if para == nil {
				first = i + 1
			}
			para = append(para, l)
		}
	}
	spans()
	flush()
	return append(bad, x.checkSections(name, text)...)
}

var sectionRef = regexp.MustCompile(`DESIGN\.md §(\d+)`)

// checkSections returns a line for each "DESIGN.md §N" in text that names no
// section of DESIGN.md.
func (x *docIndex) checkSections(name, text string) []string {
	var bad []string
	for i, l := range strings.Split(text, "\n") {
		for _, m := range sectionRef.FindAllStringSubmatch(l, -1) {
			if !x.sections[m[1]] {
				bad = append(bad, name+":"+strconv.Itoa(i+1)+": `"+m[0]+"` (DESIGN section) does not resolve")
			}
		}
	}
	return bad
}

// shCommand returns the go or make command on a line of a sh block, without
// its prompt and comment.
func shCommand(l string) string {
	l = strings.TrimPrefix(strings.TrimSpace(l), "$ ")
	if i := strings.Index(l, " #"); i >= 0 {
		l = l[:i]
	}
	if strings.HasPrefix(l, "go ") || strings.HasPrefix(l, "make ") {
		return strings.TrimSpace(l)
	}
	return ""
}

var (
	testWord   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	camelWord  = regexp.MustCompile(`\b(?:[a-z]+[A-Z]|[A-Z][a-z][a-z0-9]*[A-Z])\w*`)
	callWord   = regexp.MustCompile(`\b([A-Z][a-z]\w*|[a-z]+[A-Z]\w*)\(`)
	parenWord  = regexp.MustCompile(`\(([A-Z][a-z]\w*)\)`)
	docLink    = regexp.MustCompile(`(?:^|[\s(])\[(\*?[A-Z][\w.]*|[a-z]\w*\.[\w.]+)\]`)
	dottedWord = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)\b`)
)

// commentRefs returns the references in one line of a Go comment or an
// allow.txt reason.
func (x *docIndex) commentRefs(l string) []string {
	refs := []string{}
	for _, m := range backticks.FindAllStringSubmatch(l, -1) {
		refs = append(refs, m[1])
	}
	l = backticks.ReplaceAllString(l, "")
	if t := strings.TrimSpace(l); strings.HasPrefix(t, "go ") || strings.HasPrefix(t, "make ") {
		return append(refs, t) // a command in a code block
	}
	for _, m := range docLink.FindAllStringSubmatch(l, -1) {
		refs = append(refs, m[1])
	}
	for _, m := range dottedWord.FindAllStringSubmatch(l, -1) {
		if x.inModule(m[1]) || strings.HasSuffix(m[0], ".go") || strings.HasSuffix(m[0], ".md") {
			refs = append(refs, m[0]) // a module package's name, or a file
		}
	}
	l = dottedWord.ReplaceAllString(l, "")
	refs = append(refs, testWord.FindAllString(l, -1)...)
	for _, re := range []*regexp.Regexp{camelWord, callWord, parenWord} {
		for _, m := range re.FindAllStringSubmatch(l, -1) {
			w := m[len(m)-1]
			if !prose[w] && !testWord.MatchString(w) {
				refs = append(refs, w)
			}
		}
	}
	return refs
}

// checkComments checks every package comment outside bench/ against the
// package's own names and the packages the comment cites, and every allow.txt
// reason against the module.
func (x *docIndex) checkComments() []string {
	var bad []string
	paths := make([]string, 0, len(x.l.files))
	for path := range x.l.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if path == module+"/bench" {
			continue
		}
		for _, f := range x.l.files[path] {
			if f.Doc == nil {
				continue
			}
			var refs []string
			var lines []int
			ctx := []*types.Package{x.l.pkgs[path]}
			for _, c := range f.Doc.List {
				for _, r := range x.commentRefs(strings.TrimPrefix(c.Text, "//")) {
					refs, lines = append(refs, r), append(lines, x.l.fset.Position(c.Pos()).Line)
					ctx = append(ctx, x.cites(r)...)
				}
			}
			file := x.l.fset.Position(f.Pos()).Filename
			for i, r := range refs {
				if kind, ok := x.resolve(r, ctx); !ok {
					bad = append(bad, file+":"+strconv.Itoa(lines[i])+": `"+r+"` ("+kind+") does not resolve")
				}
			}
		}
	}
	src, err := os.ReadFile(allowFile)
	if err != nil {
		return append(bad, err.Error())
	}
	for n, l := range strings.Split(string(src), "\n") {
		_, reason, ok := strings.Cut(l, "\t")
		if !ok || strings.HasPrefix(l, "#") {
			continue
		}
		for _, r := range x.commentRefs(reason) {
			if kind, ok := x.resolve(r, nil); !ok {
				bad = append(bad, allowFile+":"+strconv.Itoa(n+1)+": `"+r+"` ("+kind+") does not resolve")
			}
		}
	}
	return bad
}
