package depgraph

import (
	"reflect"
	"strings"
	"testing"
)

func TestPaperExample(t *testing.T) {
	// app.cconf and firewall.cconf both import app_port.cinc; changing the
	// shared constant must recompile both (§3.1).
	g := New()
	g.SetImports("app.cconf", []string{"lib/app_port.cinc"})
	g.SetImports("firewall.cconf", []string{"lib/app_port.cinc"})
	got := g.Dependents("lib/app_port.cinc")
	want := []string{"app.cconf", "firewall.cconf"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Dependents = %v, want %v", got, want)
	}
}

func TestTransitive(t *testing.T) {
	g := New()
	g.SetImports("b.cinc", []string{"a.cinc"})
	g.SetImports("c.cconf", []string{"b.cinc"})
	g.SetImports("d.cconf", []string{"c.cconf"})
	got := g.Dependents("a.cinc")
	want := []string{"b.cinc", "c.cconf", "d.cconf"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Dependents = %v, want %v", got, want)
	}
}

func TestSetImportsReplaces(t *testing.T) {
	g := New()
	g.SetImports("x.cconf", []string{"old.cinc"})
	g.SetImports("x.cconf", []string{"new.cinc"})
	if deps := g.Dependents("old.cinc"); len(deps) != 0 {
		t.Errorf("stale reverse edge: %v", deps)
	}
	if deps := g.Dependents("new.cinc"); len(deps) != 1 || deps[0] != "x.cconf" {
		t.Errorf("Dependents(new) = %v", deps)
	}
}

func TestRemove(t *testing.T) {
	g := New()
	g.SetImports("x.cconf", []string{"lib.cinc"})
	g.Remove("x.cconf")
	if deps := g.Dependents("lib.cinc"); len(deps) != 0 {
		t.Errorf("Dependents after remove = %v", deps)
	}
}

func TestRecompileSetFilters(t *testing.T) {
	g := New()
	g.SetImports("lib/shared.cinc", nil)
	g.SetImports("a.cconf", []string{"lib/shared.cinc"})
	g.SetImports("mid.cinc", []string{"lib/shared.cinc"})
	g.SetImports("b.cconf", []string{"mid.cinc"})
	isConf := func(f string) bool { return strings.HasSuffix(f, ".cconf") }
	got := g.RecompileSet([]string{"lib/shared.cinc"}, isConf)
	want := []string{"a.cconf", "b.cconf"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RecompileSet = %v, want %v", got, want)
	}
}

func TestRecompileSetIncludesChangedConf(t *testing.T) {
	g := New()
	g.SetImports("a.cconf", nil)
	got := g.RecompileSet([]string{"a.cconf"}, func(f string) bool { return strings.HasSuffix(f, ".cconf") })
	if !reflect.DeepEqual(got, []string{"a.cconf"}) {
		t.Errorf("RecompileSet = %v", got)
	}
}

func TestExtractAndSet(t *testing.T) {
	g := New()
	src := []byte(`
		import "feed/base.cinc";
		import "tao/shards.cinc";
		export {};
	`)
	if err := g.ExtractAndSet("feed/ranker.cconf", src); err != nil {
		t.Fatal(err)
	}
	got := g.deps["feed/ranker.cconf"]
	want := []string{"feed/base.cinc", "tao/shards.cinc"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("imports = %v", got)
	}
	if imp := g.rdeps["feed/base.cinc"]; len(imp) != 1 || !imp["feed/ranker.cconf"] {
		t.Errorf("importers = %v", imp)
	}
}

func TestExtractParseError(t *testing.T) {
	g := New()
	if err := g.ExtractAndSet("bad.cconf", []byte(`import ;`)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestDiamondDependentsNoDuplicates(t *testing.T) {
	g := New()
	g.SetImports("l.cinc", []string{"base.cinc"})
	g.SetImports("r.cinc", []string{"base.cinc"})
	g.SetImports("top.cconf", []string{"l.cinc", "r.cinc"})
	got := g.Dependents("base.cinc")
	want := []string{"l.cinc", "r.cinc", "top.cconf"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Dependents = %v", got)
	}
}

func TestFiles(t *testing.T) {
	g := New()
	g.SetImports("b", nil)
	g.SetImports("a", nil)
	if got := g.Files(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Files = %v", got)
	}
}

// --- RecompileSet on diamond import graphs ---

// diamondGraph builds two stacked diamonds:
//
//	base.cinc ← {left.cinc, right.cinc} ← mid.cinc ← {a.cconf, b.cconf}
//	base.cinc ← left.cinc ← c.cconf (short side)
func diamondGraph() *Graph {
	g := New()
	g.SetImports("left.cinc", []string{"base.cinc"})
	g.SetImports("right.cinc", []string{"base.cinc"})
	g.SetImports("mid.cinc", []string{"left.cinc", "right.cinc"})
	g.SetImports("a.cconf", []string{"mid.cinc"})
	g.SetImports("b.cconf", []string{"mid.cinc"})
	g.SetImports("c.cconf", []string{"left.cinc"})
	return g
}

func isConf(f string) bool { return strings.HasSuffix(f, ".cconf") }

// TestRecompileSetDiamondDedup: a .cconf reachable through both sides of a
// diamond appears exactly once.
func TestRecompileSetDiamondDedup(t *testing.T) {
	g := diamondGraph()
	got := g.RecompileSet([]string{"base.cinc"}, isConf)
	want := []string{"a.cconf", "b.cconf", "c.cconf"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RecompileSet = %v, want %v (deduped, sorted)", got, want)
	}
}

// TestRecompileSetDiamondStable: repeated calls return identical slices —
// the set is sorted, not map-ordered.
func TestRecompileSetDiamondStable(t *testing.T) {
	g := diamondGraph()
	first := g.RecompileSet([]string{"base.cinc"}, isConf)
	for i := 0; i < 20; i++ {
		if got := g.RecompileSet([]string{"base.cinc"}, isConf); !reflect.DeepEqual(got, first) {
			t.Fatalf("iteration %d: RecompileSet = %v, want %v", i, got, first)
		}
	}
}

// TestRecompileSetDiamondKeepFilter: the keep filter prunes intermediate
// .cinc files but must never drop a transitively affected .cconf, no
// matter which diamond vertex changes.
func TestRecompileSetDiamondKeepFilter(t *testing.T) {
	g := diamondGraph()
	cases := []struct {
		changed []string
		want    []string
	}{
		{[]string{"base.cinc"}, []string{"a.cconf", "b.cconf", "c.cconf"}},
		{[]string{"left.cinc"}, []string{"a.cconf", "b.cconf", "c.cconf"}},
		{[]string{"right.cinc"}, []string{"a.cconf", "b.cconf"}},
		{[]string{"mid.cinc"}, []string{"a.cconf", "b.cconf"}},
		{[]string{"left.cinc", "right.cinc"}, []string{"a.cconf", "b.cconf", "c.cconf"}},
		{[]string{"a.cconf"}, []string{"a.cconf"}},
	}
	for _, c := range cases {
		got := g.RecompileSet(c.changed, isConf)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("RecompileSet(%v) = %v, want %v", c.changed, got, c.want)
		}
		// No filter: the set includes the changed files and every
		// intermediate, still deduped.
		unfiltered := g.RecompileSet(c.changed, nil)
		seen := make(map[string]bool)
		for _, f := range unfiltered {
			if seen[f] {
				t.Errorf("RecompileSet(%v, nil) has duplicate %s", c.changed, f)
			}
			seen[f] = true
		}
		for _, f := range c.want {
			if !seen[f] {
				t.Errorf("RecompileSet(%v, nil) missing affected %s", c.changed, f)
			}
		}
	}
}
