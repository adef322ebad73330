package depgraph

import (
	"fmt"
	"testing"
	"testing/quick"
)

// buildRandomDAG constructs an acyclic import graph from a seed: file i
// may only import files with smaller indices.
func buildRandomDAG(edges []uint16, n int) *Graph {
	g := New()
	if n < 2 {
		n = 2
	}
	for i := 1; i < n; i++ {
		var imports []string
		for _, e := range edges {
			target := int(e) % i
			imports = append(imports, name(target))
		}
		g.SetImports(name(i), imports)
	}
	return g
}

func name(i int) string { return fmt.Sprintf("f%03d.cinc", i) }

func TestQuickDependentsExcludeChanged(t *testing.T) {
	err := quick.Check(func(edges []uint16, nn uint8) bool {
		n := int(nn%20) + 2
		g := buildRandomDAG(edges, n)
		for i := 0; i < n; i++ {
			for _, d := range g.Dependents(name(i)) {
				if d == name(i) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickDependentsTransitive(t *testing.T) {
	// If b imports a, then Dependents(a) ⊇ {b} ∪ Dependents(b).
	err := quick.Check(func(edges []uint16, nn uint8) bool {
		n := int(nn%15) + 3
		g := buildRandomDAG(edges, n)
		for i := 1; i < n; i++ {
			for _, dep := range g.deps[name(i)] {
				depSet := toSet(g.Dependents(dep))
				if !depSet[name(i)] {
					return false
				}
				for _, higher := range g.Dependents(name(i)) {
					if !depSet[higher] {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}
