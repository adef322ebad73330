package dataflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"configerator/internal/cdl"
)

// viewModel is a small random repository: libraries and sitevar templates
// that define names, artifacts that export fields over them. A step mutates
// it; render gives the view as files, so the changed paths of a step are
// the files whose text (or existence) differs.
type viewModel struct {
	rng   *rand.Rand
	files map[string]*modelFile
}

type modelFile struct {
	deleted bool
	// broken 1 lexes but does not parse; 2 does not lex.
	broken  int
	imports []string
	lets    []string // "NAME = expr"
	fields  []string // artifacts: "field: expr"
}

var (
	modelLibs      = []string{"lib/l0.cinc", "lib/l1.cinc", "lib/l2.cinc", "lib/l3.cinc", "sitevars/s0.cinc", "sitevars/s1.cinc", "gatekeeper/g0.cinc"}
	modelArtifacts = []string{"svc/a0.cconf", "svc/a1.cconf", "svc/a2.cconf", "svc/a3.cconf", "svc/a4.cconf"}
	modelNames     = []string{"N0", "N1", "N2", "N3"}
	modelTokens    = []string{"sitevar:s0", "sitevar:s1", "sitevar:q", "gatekeeper:g0", "gatekeeper:q", "env:E0", "env:E1"}
)

func (m *viewModel) pick(list []string) string { return list[m.rng.Intn(len(list))] }

// expr is a literal, a name, or a read of an external input.
func (m *viewModel) expr() string {
	switch m.rng.Intn(6) {
	case 0:
		return m.pick(modelNames)
	case 1:
		return m.pick(modelNames) + " + 1"
	case 2:
		return fmt.Sprintf("sitevar(%q)", m.pick([]string{"s0", "s1", "q"}))
	case 3:
		return fmt.Sprintf("gatekeeper(%q)", m.pick([]string{"g0", "q"}))
	case 4:
		return fmt.Sprintf("env(%q)", m.pick([]string{"E0", "E1"}))
	}
	return fmt.Sprint(m.rng.Intn(4))
}

func newViewModel(seed int64) *viewModel {
	m := &viewModel{rng: rand.New(rand.NewSource(seed)), files: make(map[string]*modelFile)}
	for _, path := range modelLibs {
		f := &modelFile{}
		for i := m.rng.Intn(3); i >= 0; i-- {
			f.lets = append(f.lets, m.pick(modelNames)+" = "+m.expr())
		}
		m.files[path] = f
	}
	for i, path := range modelArtifacts {
		f := &modelFile{deleted: i >= 3}
		for j := m.rng.Intn(3); j >= 0; j-- {
			f.imports = append(f.imports, m.pick(modelLibs))
		}
		for j := m.rng.Intn(3); j >= 0; j-- {
			f.fields = append(f.fields, fmt.Sprintf("f%d: %s", j, m.expr()))
		}
		m.files[path] = f
	}
	return m
}

func (m *viewModel) render() cdl.MapFS {
	fs := make(cdl.MapFS)
	for path, f := range m.files {
		if f.deleted {
			continue
		}
		var b strings.Builder
		for _, imp := range f.imports {
			fmt.Fprintf(&b, "import %q;\n", imp)
		}
		for _, let := range f.lets {
			fmt.Fprintf(&b, "let %s;\n", let)
		}
		if strings.HasSuffix(path, ".cconf") {
			fmt.Fprintf(&b, "export {%s};\n", strings.Join(f.fields, ", "))
		}
		switch f.broken {
		case 1:
			b.WriteString("let = ;\n")
		case 2:
			b.WriteString("\"unterminated\n")
		}
		fs[path] = b.String()
	}
	return fs
}

// step applies one random view change.
func (m *viewModel) step() {
	all := append(append([]string{}, modelLibs...), modelArtifacts...)
	lib, art, any := m.files[m.pick(modelLibs)], m.files[m.pick(modelArtifacts)], m.files[m.pick(all)]
	switch m.rng.Intn(12) {
	case 0: // edit an artifact
		art.fields = append(art.fields[:m.rng.Intn(len(art.fields))], fmt.Sprintf("g%d: %s", m.rng.Intn(3), m.expr()))
	case 1, 2: // edit a library or a sitevar template
		lib.lets[m.rng.Intn(len(lib.lets))] = m.pick(modelNames) + " = " + m.expr()
	case 3: // add or delete a root
		art.deleted = !art.deleted
	case 4: // delete or restore a file something may import
		lib.deleted = !lib.deleted
	case 5, 6: // add an import; among libraries this makes cycles (and self-imports)
		any.imports = append(any.imports, m.pick(modelLibs))
	case 7, 8: // drop an import, which also breaks cycles
		if len(any.imports) > 0 {
			i := m.rng.Intn(len(any.imports))
			any.imports = slices.Delete(any.imports, i, i+1)
		}
	case 9: // make a file unparseable or unlexable, or repair it
		any.broken = (any.broken + 1 + m.rng.Intn(2)) % 3
	case 10: // move a name between two libraries: the same name now comes from a different, possibly unordered, place
		other := m.files[m.pick(modelLibs)]
		i := m.rng.Intn(len(lib.lets))
		other.lets = append(other.lets, lib.lets[i])
		if len(lib.lets) > 1 {
			lib.lets = slices.Delete(lib.lets, i, i+1)
		}
	case 11: // an artifact imports another artifact
		art.imports = append(art.imports, m.pick(modelArtifacts))
	}
}

func rootsOf(fs cdl.MapFS) []string {
	var roots []string
	for path := range fs {
		if strings.HasSuffix(path, ".cconf") {
			roots = append(roots, path)
		}
	}
	sort.Strings(roots)
	return roots
}

func sortedList(index pmap[[]string], key string) []string {
	l, _ := index.get(key)
	l = slices.Clone(l)
	sort.Strings(l)
	return l
}

// equalSnapshots compares everything a Repo answers, and its inverse
// indexes entry by entry.
func equalSnapshots(t *testing.T, ctx string, got, want *Repo) {
	t.Helper()
	if !slices.Equal(got.Roots, want.Roots) {
		t.Fatalf("%s: Roots = %v, from scratch %v", ctx, got.Roots, want.Roots)
	}
	if !slices.Equal(got.Errors, want.Errors) {
		t.Fatalf("%s: Errors = %q, from scratch %q", ctx, got.Errors, want.Errors)
	}
	paths := append(append([]string{}, modelLibs...), modelArtifacts...)
	for _, path := range paths {
		if g, w := got.sum(path) != nil, want.sum(path) != nil; g != w {
			t.Fatalf("%s: %s in universe = %v, from scratch %v", ctx, path, g, w)
		}
		if g, w := sortedList(got.importers, path), sortedList(want.importers, path); !slices.Equal(g, w) {
			t.Fatalf("%s: importers of %s = %v, from scratch %v", ctx, path, g, w)
		}
		gp, gerr := got.Provenance(path)
		wp, werr := want.Provenance(path)
		if !reflect.DeepEqual(gp, wp) || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: Provenance(%s) = %+v, %v; from scratch %+v, %v", ctx, path, gp, gerr, wp, werr)
		}
		for _, field := range []string{"", "f0", "g1"} {
			gw, gerr := got.Why(path, field)
			ww, werr := want.Why(path, field)
			if !reflect.DeepEqual(gw, ww) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: Why(%s, %q) = %v, %v; from scratch %v, %v", ctx, path, field, gw, gerr, ww, werr)
			}
		}
	}
	for _, token := range modelTokens {
		kind, name, _ := extToken(token)
		key := Origin{Kind: kind, Name: name}.key()
		if g, w := sortedList(got.consumers, key), sortedList(want.consumers, key); !slices.Equal(g, w) {
			t.Fatalf("%s: files reading %s = %v, from scratch %v", ctx, token, g, w)
		}
	}
	queries := [][]string{paths, modelTokens, {"lib/l0.cinc", "sitevar:s1", "svc/a1.cconf", "nowhere.cinc"}}
	for _, q := range append(paths, modelTokens...) {
		queries = append(queries, []string{q})
	}
	for _, q := range queries {
		if g, w := got.Radius(q), want.Radius(q); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Radius(%v) = %+v, from scratch %+v", ctx, q, g, w)
		}
	}
	if g, w := got.DeterminacyFor(paths), want.DeterminacyFor(paths); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: DeterminacyFor = %v, from scratch %v", ctx, g, w)
	}
}

// TestDeriveMatchesFromScratch: after every step of a random sequence of
// view changes, the snapshot derived from the previous one answers every
// query exactly as a from-scratch analysis of the same view on a fresh
// index does.
func TestDeriveMatchesFromScratch(t *testing.T) {
	cycles, errors, conflicts := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		m := newViewModel(seed)
		fs := m.render()
		ix := NewIndex(cdl.NewEngine())
		derived := ix.Analyze(fs, rootsOf(fs))
		for step := 0; step < 60; step++ {
			m.step()
			next := m.render()
			var changed, added, dropped []string
			for path, text := range next {
				if old, ok := fs[path]; !ok || old != text {
					changed = append(changed, path)
					if !ok && strings.HasSuffix(path, ".cconf") {
						added = append(added, path)
					}
				}
			}
			for path := range fs {
				if _, ok := next[path]; !ok {
					changed = append(changed, path)
					if strings.HasSuffix(path, ".cconf") {
						dropped = append(dropped, path)
					}
				}
			}
			fs = next
			derived = derived.Derive(fs, changed, added, dropped)
			scratch := NewIndex(cdl.NewEngine()).Analyze(fs, rootsOf(fs))
			ctx := fmt.Sprintf("seed %d step %d (changed %v)", seed, step, changed)
			equalSnapshots(t, ctx, derived, scratch)
			// The same view reached another way: the later roots first, the
			// earlier ones added to that snapshot.
			roots := rootsOf(fs)
			late := NewIndex(cdl.NewEngine()).Analyze(fs, roots[len(roots)/2:])
			equalSnapshots(t, ctx+", roots in two steps", late.Derive(fs, nil, roots[:len(roots)/2], nil), scratch)
			equalSnapshots(t, ctx+", early roots dropped", derived.Derive(fs, nil, nil, roots[:len(roots)/2]), late)

			errors += len(scratch.Errors)
			conflicts += len(scratch.Determinacy())
			for _, path := range modelLibs {
				if rc, ok := scratch.files.get(path); ok && rc.scanned && rc.key == "" {
					cycles++
				}
			}
		}
	}
	// The sequences must actually have visited the hard states.
	if cycles == 0 || errors == 0 || conflicts == 0 {
		t.Errorf("coverage: %d files on cycles, %d errors, %d determinacy conflicts; want all > 0", cycles, errors, conflicts)
	}
}

// TestCycleSummaryStartsAtTheFile: a file on an import cycle gets the
// summary a build starting at that file yields — its own statements after
// whatever it imports — whichever file an analysis entered the cycle
// through, now or in the snapshot it derives from.
func TestCycleSummaryStartsAtTheFile(t *testing.T) {
	fs := cdl.MapFS{
		"a.cconf": "import \"b.cconf\";\nexport {a: 1};\n",
		"b.cconf": "import \"a.cconf\";\nexport {b: 2};\n",
	}
	check := func(ctx string, rep *Repo) {
		t.Helper()
		for root, field := range map[string]string{"a.cconf": "a", "b.cconf": "b"} {
			p, err := rep.Provenance(root)
			if err != nil || len(p.Fields) != 1 || p.Fields[0].Field != field {
				t.Errorf("%s: Provenance(%s) = %+v, %v; want its own export {%s} to win", ctx, root, p, err, field)
			}
		}
	}
	check("from scratch", NewIndex(nil).Analyze(fs, []string{"a.cconf", "b.cconf"}))
	viaB := NewIndex(nil).Analyze(fs, []string{"b.cconf"})
	check("entered through b, a made a root later", viaB.Derive(fs, nil, []string{"a.cconf"}, nil))
}

// TestDeriveSharesOutsideTheCone: a derivation reads the changed file and,
// on a memo miss, the files of its cone; every record outside the cone is
// the parent's own, and the parent still answers for the old view.
func TestDeriveSharesOutsideTheCone(t *testing.T) {
	fs := diamondRepo()
	ix := NewIndex(cdl.NewEngine())
	base := ix.Analyze(fs, diamondRoots)

	edited := diamondRepo()
	edited["lib/left.cinc"] = "import \"lib/base.cinc\";\nlet LEFT = BASE + 10;\n"
	reads := &countingFS{fs: edited}
	next := base.Derive(reads, []string{"lib/left.cinc"}, nil, nil)

	cone := []string{"lib/left.cinc", "svc/top.cconf"}
	if got := reads.paths(); !slices.Equal(got, cone) {
		t.Errorf("files read = %v, want the cone %v once each", got, cone)
	}
	for path := range fs {
		old, _ := base.files.get(path)
		now, _ := next.files.get(path)
		if inCone := slices.Contains(cone, path); (old == now) == inCone {
			t.Errorf("%s: record shared with the parent = %v, in cone = %v", path, old == now, inCone)
		}
	}
	if l, _ := next.importers.get("lib/other.cinc"); !slices.Equal(l, []string{"svc/bystander.cconf"}) {
		t.Errorf("importers of lib/other.cinc = %v", l)
	}
	if why, _ := base.Why("svc/top.cconf", "l"); !hasOrigin(why, OriginModule, "lib/left.cinc") {
		t.Errorf("the parent snapshot lost its answer: %v", originNames(why))
	}

	// The same view again, from the same parent: the memo answers, and only
	// the changed file is read.
	reads = &countingFS{fs: edited}
	before := ix.Counters().Snapshot()
	base.Derive(reads, []string{"lib/left.cinc"}, nil, nil)
	after := ix.Counters().Snapshot()
	if got := reads.paths(); !slices.Equal(got, []string{"lib/left.cinc"}) {
		t.Errorf("files read on a memo-warm derivation = %v, want only the changed file", got)
	}
	if d := after[counterRecompute] - before[counterRecompute]; d != 0 {
		t.Errorf("memo-warm derivation recomputed %d summaries", d)
	}
}

// countingFS records every ReadFile.
type countingFS struct {
	fs cdl.FileSystem
	n  map[string]int
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	if c.n == nil {
		c.n = make(map[string]int)
	}
	c.n[path]++
	return c.fs.ReadFile(path)
}

// paths lists the files read, sorted, a file read twice listed twice.
func (c *countingFS) paths() []string {
	var out []string
	for path, n := range c.n {
		for ; n > 0; n-- {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// TestOldSnapshotReadableDuringDerive: readers of a snapshot run beside
// derivations from it (the -race gate for snapshot sharing).
func TestOldSnapshotReadableDuringDerive(t *testing.T) {
	fs := svRepo()
	ix := NewIndex(cdl.NewEngine())
	base := ix.Analyze(fs, []string{"svc/api.cconf", "svc/web.cconf", "svc/other.cconf"})
	want := base.Radius([]string{"sitevars/ratelimit.cinc"})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if got := base.Radius([]string{"sitevars/ratelimit.cinc"}); !reflect.DeepEqual(got, want) {
					t.Errorf("old snapshot's radius moved: %+v", got)
					return
				}
				if _, err := base.Why("svc/api.cconf", "limit"); err != nil {
					t.Error(err)
					return
				}
				base.Determinacy()
			}
		}()
		go func(i int) {
			defer wg.Done()
			snap := base
			for j := 0; j < 50; j++ {
				edited := svRepo()
				edited["sitevars/ratelimit.cinc"] = fmt.Sprintf("let RATELIMIT = %d;\n", 100+i*50+j)
				edited["svc/new.cconf"] = "import \"lib/limits.cinc\";\nexport {n: NAME};\n"
				// Alternate between a chain of derivations and a fan of them.
				from := base
				if j%2 == 1 {
					from = snap
				}
				snap = from.Derive(edited, []string{"sitevars/ratelimit.cinc", "svc/new.cconf"}, []string{"svc/new.cconf"}, nil)
			}
		}(i)
	}
	wg.Wait()
}

// TestPmap checks the persistent map against a plain one, through long
// hash collisions too, and that an update leaves the map it came from
// alone.
func TestPmap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Hashes that agree in their low bits force deep tries; equal hashes
	// force buckets.
	hashOf := func(key string) uint64 {
		n := uint64(0)
		fmt.Sscan(key[1:], &n)
		switch n % 3 {
		case 0:
			return 42
		case 1:
			return 42 | n<<58
		}
		return n * 0x9e3779b97f4a7c15
	}
	var root *pnode[int]
	model := map[string]int{}
	type version struct {
		root  *pnode[int]
		model map[string]int
	}
	var versions []version
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(300))
		owner := new(byte)
		for batch := rng.Intn(4); batch >= 0; batch-- {
			if rng.Intn(3) == 0 {
				if n, ok := root.del(owner, hashOf(key), 0, key); ok {
					root = n
				}
				delete(model, key)
			} else {
				root = root.set(owner, hashOf(key), 0, key, i)
				model[key] = i
			}
			key = fmt.Sprintf("k%d", rng.Intn(300))
		}
		if i%400 == 0 {
			copied := make(map[string]int, len(model))
			for k, v := range model {
				copied[k] = v
			}
			versions = append(versions, version{root, copied})
		}
	}
	versions = append(versions, version{root, model})
	for vi, v := range versions {
		for k := 0; k < 300; k++ {
			key := fmt.Sprintf("k%d", k)
			got, ok := v.root.get(hashOf(key), key)
			want, wantOK := v.model[key]
			if got != want || ok != wantOK {
				t.Fatalf("version %d: get(%s) = %d, %v; want %d, %v", vi, key, got, ok, want, wantOK)
			}
		}
	}
}
