package vcs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// modelPaths and modelChanged are the flat-map reference the tree is checked
// against: a snapshot is a map from path to blob hash.
func modelPaths(m map[string]Hash) []string {
	ps := make([]string, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

func modelChanged(old, new map[string]Hash) []string {
	var out []string
	for p, h := range new {
		if old[p] != h {
			out = append(out, p)
		}
	}
	for p := range old {
		if _, ok := new[p]; !ok {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// randomPath draws from a small alphabet so that paths collide: a file and a
// directory of one name ("a" and "a/b"), names that sort on either side of
// "/" ("a.b", "a0"), and the empty name ("a//b", "a/", "").
func randomPath(rng *rand.Rand) string {
	names := []string{"a", "b", "a.b", "a0", "c", ""}
	segs := make([]string, 1+rng.Intn(3))
	for i := range segs {
		segs[i] = names[rng.Intn(len(names))]
	}
	return strings.Join(segs, "/")
}

func checkTreeAgainstModel(tree Tree, model map[string]Hash) error {
	if tree.Len() != len(model) {
		return fmt.Errorf("Len %d, model holds %d", tree.Len(), len(model))
	}
	if got, want := tree.Paths(), modelPaths(model); !slices.Equal(got, want) {
		return fmt.Errorf("Paths %q, want %q", got, want)
	}
	for p, want := range model {
		if got, ok := tree.Get(p); !ok || got != want {
			return fmt.Errorf("Get(%q) = %s, %v; want %s", p, got, ok, want)
		}
	}
	return nil
}

func TestQuickTreeMatchesMapModel(t *testing.T) {
	now := time.Unix(0, 0)
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		repo := NewRepository("r")
		model := map[string]Hash{}
		// Every snapshot so far, for diffs across more than one commit.
		trees, models := []Tree{{}}, []map[string]Hash{{}}
		for commit := 0; commit < 40; commit++ {
			// Deletes and repeated paths are common: directories empty out
			// and the last change to a path must win.
			changes := make([]Change, 1+rng.Intn(6))
			next := make(map[string]Hash, len(model))
			for p, h := range model {
				next[p] = h
			}
			for i := range changes {
				p := randomPath(rng)
				if i > 0 && rng.Intn(4) == 0 {
					p = changes[rng.Intn(i)].Path
				}
				if rng.Intn(3) == 0 {
					changes[i] = Change{Path: p, Delete: true}
					delete(next, p)
				} else {
					content := []byte(fmt.Sprintf("v%d", rng.Intn(4)))
					changes[i] = Change{Path: p, Content: content}
					next[p] = hashBlob(content)
				}
			}
			repo.CommitChanges("u", "m", now, changes...)
			tree := repo.HeadTree()
			if err := checkTreeAgainstModel(tree, next); err != nil {
				t.Logf("seed %d commit %d: %v", seed, commit, err)
				return false
			}
			if _, ok := tree.Get(randomPath(rng) + "/absent"); ok {
				t.Logf("seed %d commit %d: Get finds a path nobody wrote", seed, commit)
				return false
			}
			for _, k := range []int{len(trees) - 1, rng.Intn(len(trees))} {
				if got, want := ChangedPaths(trees[k], tree), modelChanged(models[k], next); !slices.Equal(got, want) {
					t.Logf("seed %d commit %d: ChangedPaths since snapshot %d = %q, want %q", seed, commit, k, got, want)
					return false
				}
			}
			model = next
			trees, models = append(trees, tree), append(models, next)
		}
		// The same files reached another way — one commit per file on a
		// fresh repository, in random order — hash the same.
		fresh := NewRepository("fresh")
		paths := modelPaths(model)
		rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
		var rebuilt Tree
		for _, p := range paths {
			rebuilt = rebuilt.apply([]treeChange{{path: p, blob: model[p]}})
			fresh.CommitChanges("u", "m", now, Change{Path: p, Content: first(repo.ReadFile(p))})
		}
		if want := repo.HeadTree().Hash(); rebuilt.Hash() != want || fresh.HeadTree().Hash() != want {
			t.Logf("seed %d: hash depends on history: %s after the commits, %s and %s rebuilt",
				seed, want, rebuilt.Hash(), fresh.HeadTree().Hash())
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func first(b []byte, _ error) []byte { return b }

func TestEmptyTree(t *testing.T) {
	var zero Tree
	emptied := zero.apply([]treeChange{{path: "d/e/f", blob: hashBlob(nil)}}).apply([]treeChange{{path: "d/e/f", del: true}})
	if emptied.Hash() != zero.Hash() || emptied.Len() != 0 || len(emptied.Paths()) != 0 {
		t.Errorf("a tree emptied by deletes is not the empty tree: hash %s vs %s, %d files", emptied.Hash(), zero.Hash(), emptied.Len())
	}
	if _, ok := zero.Get("x"); ok {
		t.Error("Get finds a path in the empty tree")
	}
}

// dirAt walks directory names down from the root.
func dirAt(t *testing.T, tree Tree, names ...string) *node {
	t.Helper()
	n := tree.node()
	for _, name := range names {
		i := slices.IndexFunc(n.entries, func(e entry) bool { return e.isDir() && e.name == name })
		if i < 0 {
			t.Fatalf("no directory %q under %q", name, names)
		}
		n = n.entries[i].dir
	}
	return n
}

func TestOneFileCommitSharesEverySiblingDirectory(t *testing.T) {
	repo := NewRepository("r")
	var changes []Change
	for _, top := range []string{"feed", "tao", "ads"} {
		for _, sub := range []string{"x", "y", "z"} {
			for f := 0; f < 3; f++ {
				changes = append(changes, Change{Path: fmt.Sprintf("%s/%s/f%d", top, sub, f), Content: []byte("v0")})
			}
		}
	}
	repo.CommitChanges("u", "import", time.Unix(0, 0), changes...)
	before := repo.HeadTree()
	repo.CommitChanges("u", "edit", time.Unix(1, 0), Change{Path: "tao/y/f1", Content: []byte("v1")})
	after := repo.HeadTree()

	// Only the directories on the path to the change are new nodes.
	for _, path := range [][]string{{}, {"tao"}, {"tao", "y"}} {
		if dirAt(t, before, path...) == dirAt(t, after, path...) {
			t.Errorf("directory %q holds the changed file but was not copied", path)
		}
	}
	for _, path := range [][]string{{"feed"}, {"ads"}, {"tao", "x"}, {"tao", "z"}, {"feed", "y"}} {
		if dirAt(t, before, path...) != dirAt(t, after, path...) {
			t.Errorf("directory %q is off the path to the change but was copied", path)
		}
	}
	// The parent snapshot is untouched.
	if got, _ := repo.ReadFileAt(repo.Log()[0], "tao/y/f1"); string(got) != "v0" {
		t.Errorf("the parent snapshot now reads %q", got)
	}
}

// A snapshot shares nodes with every later one, so later commits must never
// write to them: readers of an old snapshot run beside the committer, and
// the race detector (make race) watches.
func TestSnapshotReadersRunBesideCommitter(t *testing.T) {
	repo := NewRepository("r")
	var changes []Change
	for i := 0; i < 256; i++ {
		changes = append(changes, Change{Path: fmt.Sprintf("d%d/e%d/f%d", i%4, i%16, i), Content: []byte("v0")})
	}
	repo.CommitChanges("u", "import", time.Unix(0, 0), changes...)
	snapshot := repo.HeadTree()
	want := snapshot.Paths()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := snapshot.Paths(); !slices.Equal(got, want) {
					t.Errorf("the snapshot's paths changed under a reader")
					return
				}
				if _, ok := snapshot.Get(want[i]); !ok || len(ChangedPaths(snapshot, snapshot)) != 0 {
					t.Errorf("the snapshot changed under a reader")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		c := changes[i*37%len(changes)]
		repo.CommitChanges("u", "edit", time.Unix(int64(i), 0), Change{Path: c.Path, Content: []byte(fmt.Sprint(i)), Delete: i%5 == 0})
	}
	wg.Wait()
}

func TestUnknownBaseIsNotFound(t *testing.T) {
	repo := NewRepository("r")
	repo.CommitChanges("u", "m", time.Unix(0, 0), Change{Path: "f", Content: []byte("1")})
	other := NewRepository("other")
	other.CommitChanges("u", "m", time.Unix(0, 0), Change{Path: "g", Content: []byte("2")})

	// A working copy whose base this repository has never seen: Update and
	// Land must both refuse it with ErrNotFound.
	wc := &WorkingCopy{repo: repo, Base: other.Head(), Author: "u", staged: map[string]Change{}}
	wc.Write("f", []byte("3"))
	if err := wc.Update(); !errors.Is(err, ErrNotFound) {
		t.Errorf("Update from an unknown base: %v, want ErrNotFound", err)
	}
	if _, err := repo.Land(wc.Diff("m"), time.Unix(1, 0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("Land from an unknown base: %v, want ErrNotFound", err)
	}
}
