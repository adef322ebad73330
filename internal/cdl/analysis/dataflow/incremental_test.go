package dataflow

import (
	"fmt"
	"sync"
	"testing"

	"configerator/internal/cdl"
)

// diamondRepo: base feeds left and right, which both feed top — the
// classic diamond — plus a bystander chain that shares nothing with it.
func diamondRepo() cdl.MapFS {
	return cdl.MapFS{
		"lib/base.cinc":  "let BASE = 1;\n",
		"lib/left.cinc":  "import \"lib/base.cinc\";\nlet LEFT = BASE + 1;\n",
		"lib/right.cinc": "import \"lib/base.cinc\";\nlet RIGHT = BASE + 2;\n",
		"svc/top.cconf": "import \"lib/left.cinc\";\nimport \"lib/right.cinc\";\n" +
			"export {l: LEFT, r: RIGHT};\n",
		"lib/other.cinc":      "let OTHER = 9;\n",
		"svc/bystander.cconf": "import \"lib/other.cinc\";\nexport {o: OTHER};\n",
	}
}

var diamondRoots = []string{"svc/top.cconf", "svc/bystander.cconf"}

// TestIncrementalInvalidation: editing one .cinc recomputes exactly its
// provenance cone — the file plus its transitive importers — while
// everything else memo-hits. The diamond shape also proves the shared
// base is recomputed once, not once per import path.
func TestIncrementalInvalidation(t *testing.T) {
	fs := diamondRepo()
	ix := NewIndex(cdl.NewEngine())

	ix.Analyze(fs, diamondRoots)
	cold := ix.Counters().Snapshot()
	if cold[counterRecompute] != 6 || cold[counterMemo] != 0 {
		t.Fatalf("cold: recompute=%d memo=%d, want 6/0", cold[counterRecompute], cold[counterMemo])
	}

	// Warm, unchanged: both roots memo-hit at the top; collectReach
	// memo-hits the rest of each closure without rebuilding anything.
	ix.Analyze(fs, diamondRoots)
	warm := ix.Counters().Snapshot()
	if d := warm[counterRecompute] - cold[counterRecompute]; d != 0 {
		t.Errorf("warm recompute delta = %d, want 0", d)
	}
	if d := warm[counterMemo] - cold[counterMemo]; d != 6 {
		t.Errorf("warm memo delta = %d, want 6 (full closure reuse)", d)
	}

	// Edit the diamond's base: the cone {base, left, right, top}
	// recomputes; the bystander chain (2 files) memo-hits.
	edited := diamondRepo()
	edited["lib/base.cinc"] = "let BASE = 2;\n"
	rep := ix.Analyze(edited, diamondRoots)
	after := ix.Counters().Snapshot()
	if d := after[counterRecompute] - warm[counterRecompute]; d != 4 {
		t.Errorf("edit recompute delta = %d, want 4 (the provenance cone)", d)
	}
	if d := after[counterMemo] - warm[counterMemo]; d != 2 {
		t.Errorf("edit memo delta = %d, want 2 (the bystander chain)", d)
	}

	// The recomputed summaries answer for the edited tree.
	origins, err := rep.Why("svc/top.cconf", "l")
	if err != nil {
		t.Fatal(err)
	}
	if !hasOrigin(origins, OriginModule, "lib/base.cinc") {
		t.Errorf("l should trace to lib/base.cinc, got %v", originNames(origins))
	}
}

// TestMemoSharedAcrossOverlayViews: two different FileSystem views that
// agree on a closure share its summaries — the property the pipeline
// leans on, where every change analyzes through its own overlay.
func TestMemoSharedAcrossOverlayViews(t *testing.T) {
	ix := NewIndex(cdl.NewEngine())
	ix.Analyze(diamondRepo(), diamondRoots)
	base := ix.Counters().Snapshot()

	// A second view adds a new artifact but leaves the diamond untouched.
	view2 := diamondRepo()
	view2["svc/extra.cconf"] = "import \"lib/other.cinc\";\nexport {o2: OTHER};\n"
	ix.Analyze(view2, append([]string{"svc/extra.cconf"}, diamondRoots...))
	after := ix.Counters().Snapshot()
	if d := after[counterRecompute] - base[counterRecompute]; d != 1 {
		t.Errorf("recompute delta = %d, want 1 (just the new artifact)", d)
	}
}

// TestConcurrentQueries: Analyze and the three query passes are safe to
// run concurrently (the -race gate for the package).
func TestConcurrentQueries(t *testing.T) {
	fs := svRepo()
	ix := NewIndex(cdl.NewEngine())
	roots := []string{"svc/api.cconf", "svc/web.cconf", "svc/other.cconf"}
	rep := ix.Analyze(fs, roots)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch i % 4 {
				case 0:
					if _, err := rep.Why("svc/api.cconf", "limit"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					rep.Radius([]string{"sitevars/ratelimit.cinc"})
				case 2:
					rep.DeterminacyFor(rep.Roots)
				case 3:
					edited := svRepo()
					edited["sitevars/ratelimit.cinc"] = fmt.Sprintf("let RATELIMIT = %d;\n", 100+i*20+j)
					ix.Analyze(edited, roots)
				}
			}
		}(i)
	}
	wg.Wait()
}
