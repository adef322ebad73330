package cdl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// seedDAG is one randomly generated module graph: the sources, the roots
// to compile, and for each editable file a second version of its source.
type seedDAG struct {
	fs    MapFS
	roots []string
	edits map[string]string
}

// genSeedDAG builds a random import DAG from the shapes the hand-written
// engine tests cover one at a time: shared libraries and diamonds, an
// impure def, a builtin rebind, a struct literal that resolves only
// through a schema the root imports from elsewhere, exports inside if/for,
// an import cycle, a missing import, parse errors and a failing validator.
func genSeedDAG(r *rand.Rand) seedDAG {
	d := seedDAG{
		fs: MapFS{
			"lib/mkjob.cinc":  `def mkjob(n, p) { return Job{name: n, prio: p}; }`,
			"lib/broken.cinc": `let = ;`,
			"cyc/a.cinc":      `import "cyc/b.cinc"; let a = 1;`,
			"cyc/b.cinc":      `import "cyc/a.cinc"; let b = 2;`,
		},
		edits: map[string]string{},
	}
	schema := func(limit int) string {
		return fmt.Sprintf("schema Job { 1: string name; 2: i32 prio = 1; }\n"+
			"validator Job(c) { assert(c.prio <= %d, \"prio too high\"); }\n", limit)
	}
	d.fs["lib/schema.cinc"] = schema(5)
	d.edits["lib/schema.cinc"] = schema(7)

	nLib := 3 + r.Intn(5)
	closure := make([]map[int]bool, nLib) // lib -> libs in its closure, itself included
	bumps := map[int]bool{}
	for k := 0; k < nLib; k++ {
		closure[k] = map[int]bool{k: true}
		var imports []int
		for j := 0; j < k; j++ {
			if r.Intn(3) == 0 {
				imports = append(imports, j)
			}
		}
		var head, body strings.Builder
		call := "x + v" + fmt.Sprint(k)
		for _, j := range imports {
			fmt.Fprintf(&head, "import \"lib/m%d.cinc\";\n", j)
			call += fmt.Sprintf(" + f%d(x)", j)
			for c := range closure[j] {
				closure[k][c] = true
			}
		}
		fmt.Fprintf(&body, "def f%d(x) { return %s; }\n", k, call)
		switch r.Intn(7) {
		case 0:
			fmt.Fprintf(&body, "let n%d = 0;\ndef bump%d() { n%d = n%d + 1; return n%d; }\n", k, k, k, k, k)
			bumps[k] = true
		case 1:
			body.WriteString("abs = str;\n")
		case 2:
			fmt.Fprintf(&body, "if (v%d > 50) { export {from: \"m%d\", v: v%d}; }\n", k, k, k)
		case 3:
			fmt.Fprintf(&body, "for (i in [1, 2]) { export {loop: i, lib: %d}; }\n", k)
		}
		path := fmt.Sprintf("lib/m%d.cinc", k)
		v := r.Intn(100)
		src := func(v int) string {
			return fmt.Sprintf("%slet v%d = %d;\n%s", head.String(), k, v, body.String())
		}
		d.fs[path] = src(v)
		d.edits[path] = src(v + 1 + r.Intn(60))
	}

	nRoot := 4 + r.Intn(6)
	for i := 0; i < nRoot; i++ {
		var imports []string
		inClosure := map[int]bool{}
		for _, k := range r.Perm(nLib)[:1+r.Intn(min(3, nLib))] {
			imports = append(imports, fmt.Sprintf("lib/m%d.cinc", k))
			for c := range closure[k] {
				inClosure[c] = true
			}
		}
		fields := []string{"abs: abs(-3)"}
		for k := 0; k < nLib; k++ {
			if inClosure[k] {
				fields = append(fields, fmt.Sprintf("f%d: f%d(1)", k, k))
				if bumps[k] {
					fields = append(fields, fmt.Sprintf("b%d: [bump%d(), bump%d()]", k, k, k))
				}
			}
		}
		export := true
		switch r.Intn(10) {
		case 0: // the struct literal has no schema in this compile
			imports = append(imports, "lib/mkjob.cinc")
			fields = append(fields, "job: mkjob(\"j\", 1)")
		case 1, 2: // the schema comes from a sibling import, before or after
			imports = append(imports, "lib/mkjob.cinc", "lib/schema.cinc")
			fields = append(fields, fmt.Sprintf("job: mkjob(\"j\", %d)", 3+r.Intn(5)))
		case 3:
			imports = append(imports, "lib/nope.cinc")
		case 4:
			imports = append(imports, "cyc/a.cinc")
		case 5:
			imports = append(imports, "lib/broken.cinc")
		case 6:
			export = false // satisfied by an imported if/for export, or an error
		}
		r.Shuffle(len(imports), func(a, b int) { imports[a], imports[b] = imports[b], imports[a] })
		var src strings.Builder
		for _, imp := range imports {
			fmt.Fprintf(&src, "import %q;\n", imp)
		}
		if export {
			fmt.Fprintf(&src, "export {%s};\n", strings.Join(fields, ", "))
		}
		if r.Intn(12) == 0 {
			src.WriteString("export {a: };\n")
		}
		path := fmt.Sprintf("app/r%02d.cconf", i)
		d.fs[path] = src.String()
		d.roots = append(d.roots, path)
	}
	sort.Strings(d.roots)
	return d
}

// seedOutcome is what the reference compiler produced for one root: its
// JSON and transitive deps, or its error message.
type seedOutcome struct {
	json string
	deps []string
	err  string
}

func seedOutcomes(fs MapFS, roots []string) map[string]seedOutcome {
	ref := &Engine{CacheDisabled: true}
	out := make(map[string]seedOutcome, len(roots))
	for _, p := range roots {
		res, err := ref.Compile(fs, p)
		if err != nil {
			out[p] = seedOutcome{err: err.Error()}
		} else {
			out[p] = seedOutcome{json: string(res.JSON), deps: res.Deps}
		}
	}
	return out
}

// checkMatchesSeed compiles roots through eng, as one CompileAll batch and
// then one Compile per root, and holds every result and error to the
// reference compiler's, byte for byte.
func checkMatchesSeed(t *testing.T, phase string, eng *Engine, fs MapFS, roots []string, want map[string]seedOutcome) {
	t.Helper()
	results, err := eng.CompileAll(fs, roots)
	got := map[string]string{}
	for _, res := range results {
		got[res.Path] = string(res.JSON)
	}
	var firstFail string
	for _, p := range roots {
		w := want[p]
		if w.err != "" {
			if firstFail == "" {
				firstFail = p
			}
			if j, ok := got[p]; ok {
				t.Errorf("%s: CompileAll %s = %s, seed error %q", phase, p, j, w.err)
			}
		} else if got[p] != w.json {
			t.Errorf("%s: CompileAll %s = %q, seed %q", phase, p, got[p], w.json)
		}
	}
	var be *BatchError
	switch {
	case firstFail == "" && err != nil:
		t.Errorf("%s: CompileAll error %v, seed compiles every root", phase, err)
	case firstFail != "" && !errors.As(err, &be):
		t.Errorf("%s: CompileAll error %v, want *BatchError for %s", phase, err, firstFail)
	case firstFail != "" && (be.Path != firstFail || be.Error() != want[firstFail].err):
		t.Errorf("%s: batch error %s: %q, seed %s: %q", phase, be.Path, be.Error(), firstFail, want[firstFail].err)
	}
	for _, p := range roots {
		checkCompileMatchesSeed(t, phase, eng, fs, p, want[p])
	}
}

func checkCompileMatchesSeed(t *testing.T, phase string, eng *Engine, fs MapFS, p string, w seedOutcome) {
	t.Helper()
	res, err := eng.Compile(fs, p)
	switch {
	case err != nil && err.Error() != w.err:
		t.Errorf("%s: Compile %s error %q, seed %q", phase, p, err, w.err)
	case err == nil && w.err != "":
		t.Errorf("%s: Compile %s = %s, seed error %q", phase, p, res.JSON, w.err)
	case err == nil && string(res.JSON) != w.json:
		t.Errorf("%s: Compile %s = %s, seed %s", phase, p, res.JSON, w.json)
	}
}

// TestEngineMatchesSeed: on random module DAGs, the caching engine agrees
// with the CacheDisabled reference byte for byte — cold, warm, after a
// library edit, and after InvalidatePaths — at one worker and at eight.
// After invalidation no root whose closure holds the edited file, and no
// failing root, may be served from the result cache.
func TestEngineMatchesSeed(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		d := genSeedDAG(rand.New(rand.NewSource(seed)))
		editable := make([]string, 0, len(d.edits))
		for p := range d.edits {
			editable = append(editable, p)
		}
		sort.Strings(editable)
		edit := editable[int(seed)%len(editable)]
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("seed=%d workers=%d", seed, workers)
			fs := MapFS{}
			for p, src := range d.fs {
				fs[p] = src
			}
			eng := NewEngine()
			eng.Workers = workers
			want := seedOutcomes(fs, d.roots)
			checkMatchesSeed(t, name+" cold", eng, fs, d.roots, want)
			checkMatchesSeed(t, name+" warm", eng, fs, d.roots, want)

			fs[edit] = d.edits[edit]
			want = seedOutcomes(fs, d.roots)
			checkMatchesSeed(t, name+" edited "+edit, eng, fs, d.roots, want)

			eng.InvalidatePaths(edit)
			for _, p := range d.roots {
				w := want[p]
				stale := w.err != "" || p == edit
				for _, dep := range w.deps {
					stale = stale || dep == edit
				}
				before := eng.Counters().Get("result.hit")
				checkCompileMatchesSeed(t, name+" invalidated", eng, fs, p, w)
				if stale && eng.Counters().Get("result.hit") != before {
					t.Errorf("%s invalidated: %s served from the result cache after InvalidatePaths(%s)", name, p, edit)
				}
			}
			checkMatchesSeed(t, name+" invalidated", eng, fs, d.roots, want)
		}
	}
}

// FuzzCompileMatchesSeed: one fuzzed .cinc imported by two roots — one
// that also imports a schema library and one that does not, neither with
// an export of its own — compiles through the engine cold, warm and after
// InvalidatePaths exactly as through the CacheDisabled reference: the same
// JSON or the same error, and no panic. The seed corpus is in
// testdata/fuzz.
func FuzzCompileMatchesSeed(f *testing.F) {
	f.Add("export {x: 1};\n")
	f.Fuzz(func(t *testing.T, lib string) {
		fs := MapFS{
			"f.cinc":  lib,
			"s.cinc":  "schema Job { 1: string name; 2: i32 prio = 1; }\n",
			"a.cconf": "import \"f.cinc\";\n",
			"b.cconf": "import \"s.cinc\";\nimport \"f.cinc\";\n",
		}
		roots := []string{"a.cconf", "b.cconf"}
		want := seedOutcomes(fs, roots)
		eng := NewEngine()
		eng.Workers = 2
		checkMatchesSeed(t, "cold", eng, fs, roots, want)
		checkMatchesSeed(t, "warm", eng, fs, roots, want)
		eng.InvalidatePaths("f.cinc")
		checkMatchesSeed(t, "invalidated", eng, fs, roots, want)
	})
}

// TestCacheBoundsEvict: one CompileAll batch larger than both cache bounds
// evicts from each and leaves neither above its bound, and every result —
// from the batch and from a Compile of each root after it — still matches
// the reference compiler byte for byte.
func TestCacheBoundsEvict(t *testing.T) {
	fs := MapFS{"lib/base.cinc": "let base = 40;\n"}
	var roots []string
	for i := 0; i <= maxResultEntries; i++ {
		p := fmt.Sprintf("app/c%05d.cconf", i)
		fs[p] = fmt.Sprintf("import \"lib/base.cinc\";\nexport {id: %d, v: base + %d};\n", i, i%7)
		roots = append(roots, p)
	}
	eng := NewEngine()
	checkMatchesSeed(t, "overflow", eng, fs, roots, seedOutcomes(fs, roots))
	parse, result := eng.Counters().Get("evict.parse"), eng.Counters().Get("evict.result")
	if parse == 0 || result == 0 || len(eng.parse) > maxParseEntries || len(eng.results) > maxResultEntries {
		t.Errorf("evicted %d parses and %d results, holds %d and %d; bounds %d and %d",
			parse, result, len(eng.parse), len(eng.results), maxParseEntries, maxResultEntries)
	}
}

// TestQuickselectMatchesSort: quickselect returns sort's k-th element for
// every k of random slices thick with duplicates, and only permutes them.
func TestQuickselectMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		xs := make([]int64, 1+r.Intn(64))
		spread := 1 + r.Intn(len(xs)+1)
		for i := range xs {
			xs[i] = int64(r.Intn(spread))
		}
		want := slices.Clone(xs)
		slices.Sort(want)
		for k := range xs {
			work := slices.Clone(xs)
			got := quickselect(work, k)
			if slices.Sort(work); got != want[k] || !slices.Equal(work, want) {
				t.Fatalf("quickselect(%v, %d) = %d leaving %v, sorted %v", xs, k, got, work, want)
			}
		}
	}
}
