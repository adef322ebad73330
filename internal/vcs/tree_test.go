package vcs

import (
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
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

// refEndsChunk restates the chunking rule with hash/fnv: an item of a chunk
// at level ends it when its key's 64-bit FNV-1a hash has chunkBits·(level+1)
// low zero bits.
func refEndsChunk(key string, level int) bool {
	h := fnv.New64a()
	h.Write([]byte(key))
	return bits.TrailingZeros64(h.Sum64()) >= chunkBits*(level+1)
}

// itemKey is the key the chunking rule reads for an item at level: a
// directory entry's name, with "/" after a subdirectory's, or a ref's key.
func itemKey(e *entry, level int) string {
	if level == 0 && e.isDir() {
		return e.name + "/"
	}
	return e.name
}

// checkShape holds every directory at or under n to the chunking rule: a
// directory of at most maxWidth entries is one node; a wider one is indexed
// to the least height at which the top node holds at most maxWidth refs; at
// each level below the top a chunk ends exactly after the items refEndsChunk
// picks, or at the directory's end; and each ref is named by the key of the
// last entry beneath it.
func checkShape(n *node, path string) error {
	// chunks[k] holds the directory's nodes of height n.height-k, in order.
	chunks := [][]*node{{n}}
	for h := n.height; h > 0; h-- {
		var below []*node
		for _, c := range chunks[len(chunks)-1] {
			if c.height != h {
				return fmt.Errorf("%q: a node of height %d under one of height %d", path, c.height, h+1)
			}
			for i := range c.entries {
				ref := &c.entries[i]
				last := ref.dir
				for last.height > 0 {
					last = last.entries[len(last.entries)-1].dir
				}
				if want := itemKey(&last.entries[len(last.entries)-1], 0); ref.name != want {
					return fmt.Errorf("%q: a ref named %q over a chunk ending at %q", path, ref.name, want)
				}
				below = append(below, ref.dir)
			}
		}
		chunks = append(chunks, below)
	}
	width := func(nodes []*node) int {
		w := 0
		for _, c := range nodes {
			w += len(c.entries)
		}
		return w
	}
	if w := width(chunks[0]); w > maxWidth {
		return fmt.Errorf("%q: a node of height %d holds %d items", path, n.height, w)
	}
	if len(chunks) > 1 && width(chunks[1]) <= maxWidth {
		return fmt.Errorf("%q: indexed to height %d though %d items fit one node", path, n.height, width(chunks[1]))
	}
	for k := 1; k < len(chunks); k++ {
		level := n.height - k
		for ci, c := range chunks[k] {
			if c.height != level || len(c.entries) == 0 {
				return fmt.Errorf("%q: chunk %d at level %d has height %d and %d items", path, ci, level, c.height, len(c.entries))
			}
			for i := range c.entries {
				key, last := itemKey(&c.entries[i], level), i == len(c.entries)-1
				if ends := refEndsChunk(key, level); ends && !last {
					return fmt.Errorf("%q: chunk %d at level %d runs past the boundary at %q", path, ci, level, key)
				} else if !ends && last && ci < len(chunks[k])-1 {
					return fmt.Errorf("%q: chunk %d at level %d ends at %q, not at a boundary", path, ci, level, key)
				}
			}
		}
	}
	for _, c := range chunks[len(chunks)-1] {
		for i := range c.entries {
			e := &c.entries[i]
			if !e.isDir() {
				continue
			}
			if e.dir.files == 0 {
				return fmt.Errorf("%q: an empty directory %q is stored", path, e.name)
			}
			if err := checkShape(e.dir, path+e.name+"/"); err != nil {
				return err
			}
		}
	}
	return nil
}

// wideName is name i of a pool for one wide directory. Each stem comes as a
// source, its artifact, a file of the bare stem and a directory of that name,
// so files and directories of one name sit on either side of "." and "/".
func wideName(i int) string {
	stem := fmt.Sprintf("s%04d", i/4)
	switch i % 4 {
	case 0:
		return stem + ".cconf"
	case 1:
		return stem + ".json"
	case 2:
		return stem
	}
	return stem + "/x"
}

// wideModel commits to a repository and to the flat-map model in step, and
// checks the tree against the model after every commit.
type wideModel struct {
	t     *testing.T
	repo  *Repository
	model map[string]Hash
	trees []Tree
	// files lists each snapshot's (path, blob) pairs in path order, for
	// diffs by merge: a map diff of every pair of 20,000-file snapshots is
	// most of the tall case's time.
	files [][]pathBlob
	// heights records each height the wide directory w/ was indexed to.
	heights map[int]bool
}

func newWideModel(t *testing.T) *wideModel {
	return &wideModel{t: t, repo: NewRepository("r"), model: map[string]Hash{},
		trees: []Tree{{}}, files: [][]pathBlob{nil}, heights: map[int]bool{}}
}

// width counts the entries of w/ in the model.
func (m *wideModel) width() int {
	keys := map[string]bool{}
	for p := range m.model {
		if rest, ok := strings.CutPrefix(p, "w/"); ok {
			name, _, isDir := strings.Cut(rest, "/")
			if isDir {
				name += "/"
			}
			keys[name] = true
		}
	}
	return len(keys)
}

type pathBlob struct {
	path string
	blob Hash
}

// mergeChanged is modelChanged over two path-sorted snapshots.
func mergeChanged(old, new []pathBlob) []string {
	var out []string
	i, j := 0, 0
	for i < len(old) || j < len(new) {
		switch {
		case j == len(new) || i < len(old) && old[i].path < new[j].path:
			out = append(out, old[i].path)
			i++
		case i == len(old) || new[j].path < old[i].path:
			out = append(out, new[j].path)
			j++
		default:
			if old[i].blob != new[j].blob {
				out = append(out, new[j].path)
			}
			i, j = i+1, j+1
		}
	}
	return out
}

// commit lands changes and checks the new snapshot: Len, Paths and Get
// against the model, the shape of every directory, and ChangedPaths from
// every earlier snapshot.
func (m *wideModel) commit(changes []Change) {
	m.t.Helper()
	next := make(map[string]Hash, len(m.model)+len(changes))
	for p, h := range m.model {
		next[p] = h
	}
	for _, c := range changes {
		if c.Delete {
			delete(next, c.Path)
		} else {
			next[c.Path] = hashBlob(c.Content)
		}
	}
	m.repo.CommitChanges("u", "m", time.Unix(int64(len(m.trees)), 0), changes...)
	tree := m.repo.HeadTree()
	if err := checkTreeAgainstModel(tree, next); err != nil {
		m.t.Fatalf("commit %d: %v", len(m.trees), err)
	}
	if err := checkShape(tree.node(), ""); err != nil {
		m.t.Fatalf("commit %d: %v", len(m.trees), err)
	}
	for _, p := range []string{"w/absent", "w/s0000.cconf/x", "w/s0001/absent", "w/zzzz"} {
		if _, ok := next[p]; !ok {
			if _, found := tree.Get(p); found {
				m.t.Fatalf("commit %d: Get finds %q, which nobody wrote", len(m.trees), p)
			}
		}
	}
	files := make([]pathBlob, 0, len(next))
	for _, p := range modelPaths(next) {
		files = append(files, pathBlob{p, next[p]})
	}
	for k := range m.trees {
		if got, want := ChangedPaths(m.trees[k], tree), mergeChanged(m.files[k], files); !slices.Equal(got, want) {
			m.t.Fatalf("commit %d: ChangedPaths since snapshot %d = %d paths %q, want %d paths %q", len(m.trees), k, len(got), got, len(want), want)
		}
	}
	if e := tree.node().lookup("w", true); e != nil {
		m.heights[e.dir.height] = true
	}
	m.model = next
	m.trees, m.files = append(m.trees, tree), append(m.files, files)
}

// checkRebuilt builds the model's files again, one at a time in a shuffled
// order and in one batch, and requires the head's hash from both.
func (m *wideModel) checkRebuilt(rng *rand.Rand) {
	m.t.Helper()
	paths := modelPaths(m.model)
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	var oneByOne Tree
	batch := make([]treeChange, 0, len(paths))
	for _, p := range paths {
		oneByOne = oneByOne.apply([]treeChange{{path: p, blob: m.model[p]}})
		batch = append(batch, treeChange{path: p, blob: m.model[p]})
	}
	want := m.repo.HeadTree().Hash()
	if got := (Tree{}).apply(batch).Hash(); oneByOne.Hash() != want || got != want {
		m.t.Fatalf("the hash depends on history: %s after %d commits, %s rebuilt one file at a time, %s in one batch",
			want, len(m.trees)-1, oneByOne.Hash(), got)
	}
}

// TestWideTreeMatchesMapModel is TestQuickTreeMatchesMapModel for
// directories wider than maxWidth: w/ grows past the bound (in the tall case
// past a two-level index) and shrinks back under it, through commits of
// inserts, edits and deletes, some of one file and some of thousands.
func TestWideTreeMatchesMapModel(t *testing.T) {
	for _, c := range []struct {
		name                     string
		seeds                    int64
		pool, peak, floor, batch int
		// heights are the indexes w/ must pass through; final is its last.
		heights []int
		final   int
	}{
		{"wide", 4, 4 * 200, 400, 128, 60, []int{0, 1}, 0},
		{"tall", 1, 4 * 8000, 22000, 12000, 8000, []int{1, 2}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < c.seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := newWideModel(t)
				for grow := true; grow || m.width() >= c.floor; {
					if grow && m.width() > c.peak {
						grow = false
						m.checkRebuilt(rng)
					}
					changes := make([]Change, 1+rng.Intn(4))
					if rng.Intn(4) != 0 {
						changes = make([]Change, 1+rng.Intn(c.batch))
					}
					// While w/ shrinks, deletes pick files it holds.
					var held []string
					if !grow {
						for p := range m.model {
							if strings.HasPrefix(p, "w/") {
								held = append(held, p)
							}
						}
						sort.Strings(held)
					}
					for i := range changes {
						del := rng.Intn(10) == 0
						if !grow {
							del = !del
						}
						p := "w/" + wideName(rng.Intn(c.pool))
						switch {
						case del && len(held) > 0:
							p = held[rng.Intn(len(held))]
						case i > 0 && rng.Intn(8) == 0:
							p = changes[rng.Intn(i)].Path
						case rng.Intn(8) == 0:
							p = fmt.Sprintf("n/f%d", rng.Intn(8))
						}
						if del {
							changes[i] = Change{Path: p, Delete: true}
						} else {
							changes[i] = Change{Path: p, Content: []byte(fmt.Sprintf("v%d", rng.Intn(4)))}
						}
					}
					m.commit(changes)
				}
				m.checkRebuilt(rng)
				for _, h := range c.heights {
					if !m.heights[h] {
						t.Errorf("seed %d: w/ was never indexed to height %d (saw %v)", seed, h, m.heights)
					}
				}
				if got := dirAt(t, m.repo.HeadTree(), "w").height; got != c.final {
					t.Errorf("seed %d: w/ ends at height %d with %d entries, want %d", seed, got, m.width(), c.final)
				}
			}
		})
	}
}

// FuzzTreeMatchesMapModel holds commits to one wide directory to the map
// model as TestWideTreeMatchesMapModel does. ops[0] sets how many files w/
// starts with, 0 to 510, so a run starts on either side of maxWidth. Each
// later 3-byte group (k, hi, lo) is one change to file (hi<<8|lo) % 1024 of
// the pool: k%4 is 0 or 1 to write content k>>2, 2 to delete, and 3 ends the
// commit.
func FuzzTreeMatchesMapModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 1+3*128 {
			return
		}
		m := newWideModel(t)
		var changes []Change
		for i := 0; i < 2*int(ops[0]); i++ {
			changes = append(changes, Change{Path: "w/" + wideName(i), Content: []byte("v0")})
		}
		m.commit(changes)
		changes = nil
		for ops = ops[1:]; len(ops) >= 3; ops = ops[3:] {
			k, path := ops[0], "w/"+wideName((int(ops[1])<<8|int(ops[2]))%1024)
			switch k % 4 {
			case 3:
				m.commit(changes)
				changes = nil
			case 2:
				changes = append(changes, Change{Path: path, Delete: true})
			default:
				changes = append(changes, Change{Path: path, Content: []byte{k >> 2}})
			}
		}
		m.commit(changes)
		m.checkRebuilt(rand.New(rand.NewSource(int64(len(m.trees)))))
	})
}

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
		e := n.lookup(name, true)
		if e == nil {
			t.Fatalf("no directory %q under %q", name, names)
		}
		n = e.dir
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
	for i := 0; i < wideDirFiles; i++ {
		changes = append(changes, Change{Path: wideDirPath(i), Content: []byte("v0")})
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
	for _, path := range [][]string{{"feed"}, {"ads"}, {"svc"}, {"tao", "x"}, {"tao", "z"}, {"feed", "y"}} {
		if dirAt(t, before, path...) != dirAt(t, after, path...) {
			t.Errorf("directory %q is off the path to the change but was copied", path)
		}
	}
	// The parent snapshot is untouched.
	if got, _ := readAt(repo, repo.Log()[0], "tao/y/f1"); string(got) != "v0" {
		t.Errorf("the parent snapshot now reads %q", got)
	}

	// In the 6,000-entry svc/, an edit copies the directory's index and the
	// one chunk that holds the file, whether the file ends its chunk (its
	// name places the boundary, which an edit must not move) or not.
	chunks := leafChunks(dirAt(t, after, "svc"))
	for _, c := range []struct {
		what  string
		chunk int
		name  string
	}{
		{"the last entry of a chunk", 3, chunks[3].entries[len(chunks[3].entries)-1].name},
		{"the first entry of a chunk", 5, chunks[5].entries[0].name},
	} {
		before := repo.HeadTree()
		repo.CommitChanges("u", "edit", time.Unix(2, 0), Change{Path: "svc/" + c.name, Content: []byte(c.what)})
		after := repo.HeadTree()
		if dirAt(t, before, "svc") == dirAt(t, after, "svc") || dirAt(t, before, "feed") != dirAt(t, after, "feed") {
			t.Errorf("editing %s: svc/ was not copied, or its sibling feed/ was", c.what)
		}
		old, new := leafChunks(dirAt(t, before, "svc")), leafChunks(dirAt(t, after, "svc"))
		if len(old) != len(new) {
			t.Fatalf("editing %s: svc/ went from %d chunks to %d", c.what, len(old), len(new))
		}
		for i := range old {
			if copied := old[i] != new[i]; copied != (i == c.chunk) {
				t.Errorf("editing %s of chunk %d: chunk %d of %d copied = %v", c.what, c.chunk, i, len(old), copied)
			}
		}
	}
}

// leafChunks lists, in order, the nodes of height 0 under directory n.
func leafChunks(n *node) []*node {
	if n.height == 0 {
		return []*node{n}
	}
	var out []*node
	for i := range n.entries {
		out = append(out, leafChunks(n.entries[i].dir)...)
	}
	return out
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
	// w/ is wider than maxWidth, so it is chunked; the committer's inserts
	// and deletes there split and merge its chunks.
	for i := 0; i < 3*maxWidth; i += 2 {
		changes = append(changes, Change{Path: fmt.Sprintf("w/f%04d", i), Content: []byte("v0")})
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
	// The names of w/ that end a chunk: writing one splits a chunk, and
	// deleting one merges two.
	var boundaries []string
	for i := 0; i < 3*maxWidth; i++ {
		if name := fmt.Sprintf("f%04d", i); endsChunk(&entry{name: name}, 0) {
			boundaries = append(boundaries, "w/"+name)
		}
	}
	split, merged := false, false
	for i := 0; i < 200; i++ {
		c := changes[i*37%len(changes)]
		w := boundaries[i%len(boundaries)]
		_, held := repo.HeadTree().Get(w)
		was := len(leafChunks(dirAt(t, repo.HeadTree(), "w")))
		repo.CommitChanges("u", "edit", time.Unix(int64(i), 0),
			Change{Path: c.Path, Content: []byte(fmt.Sprint(i)), Delete: i%5 == 0},
			Change{Path: w, Content: []byte(fmt.Sprint(i)), Delete: held})
		now := len(leafChunks(dirAt(t, repo.HeadTree(), "w")))
		split, merged = split || now > was, merged || now < was
	}
	wg.Wait()
	if w := dirAt(t, snapshot, "w"); w.height == 0 || !split || !merged {
		t.Errorf("w/ is at height %d, and commits split chunks %v and merged them %v; the test needs all three",
			w.height, split, merged)
	}
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

// TestNarrowTreeHashesUnchanged pins the flat encoding: a directory of at
// most maxWidth entries hashes exactly as it did before wide directories were
// chunked, so trees of narrow directories keep their hashes.
func TestNarrowTreeHashesUnchanged(t *testing.T) {
	build := func(paths []string) Tree {
		changes := make([]treeChange, len(paths))
		for i, p := range paths {
			changes[i] = treeChange{path: p, blob: hashBlob([]byte(p))}
		}
		return Tree{}.apply(changes)
	}
	var cube, flat []string
	for _, a := range []string{"a", "b", "c"} {
		for _, b := range []string{"x", "y", "z"} {
			for f := 0; f < 3; f++ {
				cube = append(cube, fmt.Sprintf("%s/%s/f%d", a, b, f))
			}
		}
	}
	for i := 0; i < maxWidth; i++ {
		flat = append(flat, fmt.Sprintf("svc/c%03d.cconf", i))
	}
	for _, c := range []struct {
		name string
		tree Tree
		want string
	}{
		{"empty", Tree{}, "8c5ae0d502b823c31aafe262c83545c74204c3f17c473d26234a44f17c6892e6"},
		{"3x3x3", build(cube), "807480bd698bb7ec345dc5dd260fcd2b56b3375d8d495ba1bb2f2fe04ef417a0"},
		{"256 entries", build(flat), "b8a0de64d1b638c03b8d82a5692c628c87aac292cba22fc0e34c95b8aa385af5"},
	} {
		if h := c.tree.Hash(); hex.EncodeToString(h[:]) != c.want {
			t.Errorf("%s tree hashes %x, want %s", c.name, h, c.want)
		}
	}
}
