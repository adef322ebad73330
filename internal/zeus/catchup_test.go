package zeus

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"configerator/internal/vcs"
)

// replayModel is the reference a state catch-up is judged against: a replica
// that was sent, and applied, every op ever committed — the op-log replay the
// data tree used to do. It shares no code with DataTree.
type replayModel struct {
	data      map[string][]byte
	version   map[string]int64
	zxid      map[string]int64
	deletedAt map[string]int64
	last      int64
}

func newReplayModel() *replayModel {
	return &replayModel{data: map[string][]byte{}, version: map[string]int64{},
		zxid: map[string]int64{}, deletedAt: map[string]int64{}}
}

func (m *replayModel) replay(op WriteOp) {
	m.last = op.Zxid
	if op.Delete {
		delete(m.data, op.Path)
		delete(m.version, op.Path)
		delete(m.zxid, op.Path)
		m.deletedAt[op.Path] = op.Zxid
		return
	}
	delete(m.deletedAt, op.Path)
	m.data[op.Path] = op.Data
	m.version[op.Path] = op.Version
	m.zxid[op.Path] = op.Zxid
}

// matches reports how tree differs from the model ("" if it does not).
func (m *replayModel) matches(tree *DataTree, paths []string) string {
	if tree.LastZxid() != m.last {
		return fmt.Sprintf("LastZxid = %d, replay gives %d", tree.LastZxid(), m.last)
	}
	if tree.Size() != len(m.data) {
		return fmt.Sprintf("%d live paths %v, replay gives %d", tree.Size(), tree.Paths(), len(m.data))
	}
	for _, p := range paths {
		rec, want := tree.Get(p), m.data[p]
		switch {
		case (rec != nil) != (want != nil):
			return fmt.Sprintf("%s: live = %v, replay gives %v", p, rec != nil, want != nil)
		case tree.DeletedAt(p) != m.deletedAt[p]:
			return fmt.Sprintf("%s: DeletedAt = %d, replay gives %d", p, tree.DeletedAt(p), m.deletedAt[p])
		case rec == nil:
		case !bytes.Equal(rec.Data, want) || rec.Hash != vcs.HashBytes(want):
			return fmt.Sprintf("%s: content %q digest %x, replay gives %q", p, rec.Data, rec.Hash, want)
		case rec.Version != m.version[p] || rec.Zxid != m.zxid[p]:
			return fmt.Sprintf("%s: at (v%d, zxid %d), replay gives (v%d, zxid %d)",
				p, rec.Version, rec.Zxid, m.version[p], m.zxid[p])
		}
	}
	return ""
}

// checkCatchUpScript runs one op script against a leader tree and two
// replicas that are only ever brought up through ChangedAfter, at the points
// the script says. Each script byte pair (a, b) is one step on path a%4:
// a>>2&3 = 0 or 1 writes a body made from b (a rewrite, or a re-create after
// a delete), 2 deletes, 3 catches replica b%2 up. After every catch-up, and
// for both replicas at the end, the replica must be where replaying every op
// would have put it, and the reply that got it there must have been in
// strictly increasing zxid order, all newer than what the replica had, with
// no path twice.
func checkCatchUpScript(t *testing.T, script []byte) {
	t.Helper()
	paths := []string{"/a", "/b", "/c", "/d"}
	leader, model := NewDataTree(), newReplayModel()
	replicas := []*DataTree{NewDataTree(), NewDataTree()}
	var zxid int64
	catchUp := func(step int, r *DataTree) {
		ups := leader.ChangedAfter(r.LastZxid())
		last, seen := r.LastZxid(), map[string]bool{}
		for _, u := range ups {
			if u.Zxid <= last || seen[u.Path] {
				t.Fatalf("step %d: catch-up after %d is not one update per path in zxid order: %+v",
					step, r.LastZxid(), ups)
			}
			last, seen[u.Path] = u.Zxid, true
		}
		for _, u := range ups {
			if _, err := r.take(u); err != nil {
				t.Fatalf("step %d: catch-up update %+v refused: %v", step, u, err)
			}
		}
		if diff := model.matches(r, paths); diff != "" {
			t.Fatalf("step %d: replica caught up from the state diff: %s", step, diff)
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		a, b := script[i], script[i+1]
		path := paths[a%4]
		kind := a >> 2 & 3
		if kind == 3 {
			catchUp(i/2, replicas[b%2])
			continue
		}
		zxid++
		op := WriteOp{Zxid: zxid, Path: path, Delete: kind == 2}
		if !op.Delete {
			op.Version = leader.NextVersion(path)
			op.Data = bytes.Repeat([]byte{b}, 1+int(b)%5)
		}
		leader.Apply(op)
		model.replay(op)
		if diff := model.matches(leader, paths); diff != "" {
			t.Fatalf("step %d: leader tree: %s", i/2, diff)
		}
	}
	for _, r := range replicas {
		catchUp(len(script)/2, r)
	}
}

// TestCatchUpMatchesReplay: random write / rewrite / delete / re-create
// sequences over a few paths, with catch-ups at random points. Hand-mutations
// that make it fail: ChangedAfter not shipping tombstones (a deleted path
// stays live on the replica); adopt not dropping the tombstone when a path is
// written again (the path ships twice, DeletedAt of a live path is not 0);
// ChangedAfter not sorting (out of zxid order).
func TestCatchUpMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		script := make([]byte, 2*(1+rng.Intn(40)))
		rng.Read(script)
		checkCatchUpScript(t, script)
	}
}

// FuzzCatchUpMatchesReplay: the same oracle over op scripts decoded from the
// fuzzer's bytes. The seed corpus — delete then re-create across a catch-up,
// a delete of a path that never existed, several rewrites while a replica is
// away — is in testdata/fuzz.
func FuzzCatchUpMatchesReplay(f *testing.F) {
	f.Add([]byte{0, 'x', 12, 0, 8, 0, 0, 'y', 12, 0, 12, 1})
	f.Fuzz(checkCatchUpScript)
}

// TestTreeMemoryFollowsPathsNotWrites: a replica holds state, not history.
// 20,000 rewrites of 8 paths with fresh 4 KB bodies — 80 MB through the tree —
// must leave it retaining the 8 newest bodies, not a log of all of them.
func TestTreeMemoryFollowsPathsNotWrites(t *testing.T) {
	tree := NewDataTree()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= 20000; i++ {
		body := make([]byte, 4096)
		body[0], body[1], body[2] = byte(i), byte(i>>8), byte(i>>16)
		path := fmt.Sprintf("/configs/p%d", i%8)
		tree.Apply(WriteOp{Zxid: int64(i), Path: path, Data: body, Version: tree.NextVersion(path)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained > 1<<20 {
		t.Fatalf("tree retains %d KB after 20,000 rewrites of 8 paths, want < 1 MB", retained>>10)
	}
	if tree.Size() != 8 || tree.LastZxid() != 20000 || tree.Get("/configs/p0").Version != 2500 {
		t.Fatalf("tree = %d paths at zxid %d, p0 at v%d", tree.Size(), tree.LastZxid(), tree.Get("/configs/p0").Version)
	}
	runtime.KeepAlive(tree)
}
