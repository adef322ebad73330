package dataflow

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"configerator/internal/cdl"
	"configerator/internal/depgraph"
)

// graphModel is a small source tree for the import-graph differential:
// libraries, some imported by no config, and configs. Every op the fuzzer
// drives is an edit, a delete or re-add, an import gained or lost, or a
// file made unparseable or unlexable and back.
type graphModel struct {
	files []*graphFile
}

type graphFile struct {
	path    string
	deleted bool
	version int
	// broken 1 lexes but does not parse; 2 does not lex.
	broken  int
	imports []int
}

// newGraphModel starts with a chain, an import cycle (l2 and l3), a
// library nothing imports (l4), a library that does not lex (l5) and a
// config not yet added (a3).
func newGraphModel() *graphModel {
	m := &graphModel{}
	for i, imports := range [][]int{nil, {0}, {3}, {2}, {1}, {0}} {
		m.files = append(m.files, &graphFile{path: fmt.Sprintf("lib/l%d.cinc", i), imports: imports})
	}
	m.files[5].broken = 2
	for i, imports := range [][]int{{1}, {2}, {5}, {4}} {
		m.files = append(m.files, &graphFile{path: fmt.Sprintf("svc/a%d.cconf", i), imports: imports, deleted: i == 3})
	}
	return m
}

const graphLibs = 6

func (m *graphModel) render() cdl.MapFS {
	fs := make(cdl.MapFS)
	for _, f := range m.files {
		if f.deleted {
			continue
		}
		var b strings.Builder
		for _, i := range f.imports {
			fmt.Fprintf(&b, "import %q;\n", m.files[i].path)
		}
		if strings.HasSuffix(f.path, ".cconf") {
			fmt.Fprintf(&b, "export {v: %d};\n", f.version)
		} else {
			fmt.Fprintf(&b, "let V = %d;\n", f.version)
		}
		switch f.broken {
		case 1:
			b.WriteString("let = ;\n")
		case 2:
			b.WriteString("\"unterminated\n")
		}
		fs[f.path] = b.String()
	}
	return fs
}

// apply performs the op two bytes encode: the kind and the file it
// applies to, and the file an import it adds names.
func (m *graphModel) apply(op, arg byte) {
	f := m.files[int(op/6)%len(m.files)]
	lib := int(arg) % graphLibs
	switch op % 6 {
	case 0:
		f.version++
	case 1:
		f.deleted = !f.deleted
	case 2: // may close a cycle, or import itself
		f.imports = append(f.imports, lib)
	case 3:
		if len(f.imports) > 0 {
			f.imports = f.imports[1:]
		}
	case 4:
		f.broken = (f.broken + 1) % 3
	case 5: // a config imports another config
		f.imports = append(f.imports, graphLibs+lib%4)
	}
}

// coldGraph is the Dependency Service's graph built from scratch over fs.
func coldGraph(fs cdl.MapFS) *depgraph.Graph {
	g := depgraph.New()
	for path, src := range fs {
		_ = g.ExtractAndSet(path, []byte(src)) // a file that does not lex has no edges
	}
	return g
}

func isConfig(path string) bool { return strings.HasSuffix(path, ".cconf") }

// checkDependentsMatchDepgraph drives the model through ops, deriving one
// snapshot per op from the last, and holds Dependents and the recompile set
// to a cold depgraph after every op: for each file of the model, and for
// the op's changed paths together.
func checkDependentsMatchDepgraph(t *testing.T, ops []byte) {
	t.Helper()
	m := newGraphModel()
	var fs cdl.MapFS
	snap := NewIndex(cdl.NewEngine()).Analyze(cdl.MapFS{}, nil)
	for step := -2; step+1 < len(ops); step += 2 {
		if step >= 0 {
			m.apply(ops[step], ops[step+1])
		}
		next := m.render()
		var changed, added, dropped []string
		for _, f := range m.files {
			old, was := fs[f.path]
			now, is := next[f.path]
			if was == is && old == now {
				continue
			}
			changed = append(changed, f.path)
			if isConfig(f.path) && is && !was {
				added = append(added, f.path)
			} else if isConfig(f.path) && was && !is {
				dropped = append(dropped, f.path)
			}
		}
		fs = next
		snap = snap.Derive(fs, changed, added, dropped)

		g := coldGraph(fs)
		queries := [][]string{changed}
		for _, f := range m.files {
			queries = append(queries, []string{f.path})
		}
		for _, q := range queries {
			got, want := snap.Dependents(q...), g.Dependents(q...)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (ops %v): Dependents(%v) = %v, cold depgraph %v", step, ops[:step+2], q, got, want)
			}
			recompile := topLevel(append(got, q...))
			slices.Sort(recompile)
			if want := g.RecompileSet(q, isConfig); !slices.Equal(recompile, want) {
				t.Fatalf("step %d (ops %v): recompile set of %v = %v, cold depgraph %v", step, ops[:step+2], q, recompile, want)
			}
		}
	}
}

// topLevel keeps the configs of paths.
func topLevel(paths []string) []string {
	return slices.DeleteFunc(slices.Clone(paths), func(path string) bool { return !isConfig(path) })
}

// TestDependentsMatchDepgraph: on random op sequences over a tree with
// unrooted libraries, an unlexable file and an import cycle, the derived
// snapshot's import graph answers as a depgraph built cold over the same
// files, through edits, deletes and re-adds.
func TestDependentsMatchDepgraph(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		ops := make([]byte, 80)
		rand.New(rand.NewSource(seed)).Read(ops)
		checkDependentsMatchDepgraph(t, ops)
	}
}

// FuzzDependentsMatchDepgraph is TestDependentsMatchDepgraph over fuzzed op
// sequences. The seed corpus is in testdata/fuzz.
func FuzzDependentsMatchDepgraph(f *testing.F) {
	f.Add([]byte{1, 0, 8, 2, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		checkDependentsMatchDepgraph(t, ops)
	})
}
