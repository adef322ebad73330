package vcs

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"configerator/internal/vclock"
)

var t0 = vclock.Epoch

func TestCommitAndRead(t *testing.T) {
	r := NewRepository("test")
	r.CommitChanges("alice", "add a", t0, Change{Path: "a.cconf", Content: []byte("x=1\n")})
	got, err := r.ReadFile("a.cconf")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "x=1\n" {
		t.Errorf("ReadFile = %q", got)
	}
	if r.FileCount() != 1 || r.CommitCount() != 1 {
		t.Errorf("FileCount=%d CommitCount=%d", r.FileCount(), r.CommitCount())
	}
}

func TestReadMissing(t *testing.T) {
	r := NewRepository("test")
	if _, err := r.ReadFile("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestDeleteFile(t *testing.T) {
	r := NewRepository("test")
	r.CommitChanges("a", "add", t0, Change{Path: "f", Content: []byte("1")})
	r.CommitChanges("a", "rm", t0, Change{Path: "f", Delete: true})
	if _, err := r.ReadFile("f"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted file still readable: %v", err)
	}
	if r.FileCount() != 0 {
		t.Errorf("FileCount = %d", r.FileCount())
	}
}

func TestHistoryAndReadAt(t *testing.T) {
	r := NewRepository("test")
	h1 := r.CommitChanges("a", "v1", t0, Change{Path: "f", Content: []byte("v1")})
	h2 := r.CommitChanges("a", "v2", t0.Add(time.Hour), Change{Path: "f", Content: []byte("v2")})
	b1, err := r.ReadFileAt(h1, "f")
	if err != nil || string(b1) != "v1" {
		t.Errorf("ReadFileAt h1 = %q, %v", b1, err)
	}
	b2, _ := r.ReadFileAt(h2, "f")
	if string(b2) != "v2" {
		t.Errorf("ReadFileAt h2 = %q", b2)
	}
	log := r.Log()
	if len(log) != 2 || log[0] != h1 || log[1] != h2 {
		t.Errorf("Log = %v", log)
	}
	if got := r.LogAfter(1); len(got) != 1 || got[0] != h2 {
		t.Errorf("LogAfter(1) = %v", got)
	}
}

func TestContentAddressing(t *testing.T) {
	s := NewStore()
	h1 := s.PutBlob([]byte("same"))
	h2 := s.PutBlob([]byte("same"))
	if h1 != h2 {
		t.Error("identical blobs must share an address")
	}
	h3 := s.PutBlob([]byte("different"))
	if h1 == h3 {
		t.Error("different blobs must not collide")
	}
	blobs, _, _ := s.Objects()
	if blobs != 2 {
		t.Errorf("blobs = %d, want 2 (deduplicated)", blobs)
	}
}

func TestPushRequiresUpToDate(t *testing.T) {
	r := NewRepository("test")
	wcA := r.Clone("alice")
	wcB := r.Clone("bob")
	wcA.Write("a.cconf", []byte("a"))
	wcB.Write("b.cconf", []byte("b")) // disjoint file!
	if _, err := wcA.Push("diff A", t0); err != nil {
		t.Fatal(err)
	}
	// Even though bob touched a different file, git rejects the push.
	if _, err := wcB.Push("diff B", t0); !errors.Is(err, ErrOutOfDate) {
		t.Fatalf("stale push err = %v, want ErrOutOfDate", err)
	}
	if err := wcB.Update(); err != nil {
		t.Fatal(err)
	}
	if _, err := wcB.Push("diff B", t0); err != nil {
		t.Fatal(err)
	}
	if r.CommitCount() != 2 {
		t.Errorf("CommitCount = %d", r.CommitCount())
	}
}

func TestUpdateConflict(t *testing.T) {
	r := NewRepository("test")
	r.CommitChanges("root", "seed", t0, Change{Path: "f", Content: []byte("v0")})
	wc := r.Clone("alice")
	wc.Write("f", []byte("alice's v1"))
	r.CommitChanges("bob", "race", t0, Change{Path: "f", Content: []byte("bob's v1")})
	if err := wc.Update(); !errors.Is(err, ErrConflict) {
		t.Fatalf("Update err = %v, want ErrConflict", err)
	}
}

func TestLandSkipsRebaseUnlessConflict(t *testing.T) {
	r := NewRepository("test")
	wc := r.Clone("alice")
	wc.Write("feed/x", []byte("x"))
	d := wc.Diff("add x")
	// Another engineer lands first.
	r.CommitChanges("bob", "add y", t0, Change{Path: "tao/y", Content: []byte("y")})
	// Landing strip can still land alice's stale-based diff: disjoint files.
	if _, err := r.Land(d, t0); err != nil {
		t.Fatalf("Land = %v", err)
	}
	if r.FileCount() != 2 {
		t.Errorf("FileCount = %d, want 2", r.FileCount())
	}
}

func TestLandTrueConflict(t *testing.T) {
	r := NewRepository("test")
	r.CommitChanges("root", "seed", t0, Change{Path: "f", Content: []byte("v0")})
	wc := r.Clone("alice")
	wc.Write("f", []byte("alice"))
	d := wc.Diff("alice's change")
	r.CommitChanges("bob", "race", t0, Change{Path: "f", Content: []byte("bob")})
	if _, err := r.Land(d, t0); !errors.Is(err, ErrConflict) {
		t.Fatalf("Land err = %v, want ErrConflict", err)
	}
}

func TestWorkingCopyRead(t *testing.T) {
	r := NewRepository("test")
	r.CommitChanges("root", "seed", t0, Change{Path: "f", Content: []byte("base")})
	wc := r.Clone("alice")
	if b, _ := wc.Read("f"); string(b) != "base" {
		t.Errorf("Read = %q", b)
	}
	wc.Write("f", []byte("staged"))
	if b, _ := wc.Read("f"); string(b) != "staged" {
		t.Errorf("Read staged = %q", b)
	}
	wc.Delete("f")
	if _, err := wc.Read("f"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Read deleted err = %v", err)
	}
	if !wc.Dirty() {
		t.Error("Dirty should be true")
	}
}

func TestDiffLinesModify(t *testing.T) {
	oldC := []byte("a\nb\nc\n")
	newC := []byte("a\nB\nc\n")
	st := DiffLines(oldC, newC)
	// Modifying one line = 1 delete + 1 add = 2 line changes (paper Table 2).
	if st.Total() != 2 || st.Added != 1 || st.Deleted != 1 {
		t.Errorf("DiffLines = %+v", st)
	}
}

func TestDiffLinesAddDelete(t *testing.T) {
	if st := DiffLines([]byte("a\n"), []byte("a\nb\n")); st.Added != 1 || st.Deleted != 0 {
		t.Errorf("add: %+v", st)
	}
	if st := DiffLines([]byte("a\nb\n"), []byte("b\n")); st.Added != 0 || st.Deleted != 1 {
		t.Errorf("delete: %+v", st)
	}
	if st := DiffLines([]byte("same\n"), []byte("same\n")); st.Total() != 0 {
		t.Errorf("identical: %+v", st)
	}
	if st := DiffLines(nil, []byte("a\nb\nc\n")); st.Added != 3 {
		t.Errorf("create: %+v", st)
	}
	if st := DiffLines([]byte("a\nb\nc\n"), nil); st.Deleted != 3 {
		t.Errorf("remove: %+v", st)
	}
}

func TestDiffLinesLargeFallback(t *testing.T) {
	var oldB, newB bytes.Buffer
	for i := 0; i < maxDiffLines+100; i++ {
		oldB.WriteString("line\n")
		newB.WriteString("line\n")
	}
	newB.WriteString("extra\n")
	st := DiffLines(oldB.Bytes(), newB.Bytes())
	if st.Added != 1 || st.Deleted != 0 {
		t.Errorf("large-file diff = %+v", st)
	}
}

func TestStatCommit(t *testing.T) {
	r := NewRepository("test")
	h1 := r.CommitChanges("a", "v1", t0, Change{Path: "f", Content: []byte("a\nb\n")})
	h2 := r.CommitChanges("a", "v2", t0,
		Change{Path: "f", Content: []byte("a\nB\n")},
		Change{Path: "g", Content: []byte("new\n")})
	st, _, err := r.DiffCommits(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesChanged != 2 {
		t.Errorf("FilesChanged = %d", st.FilesChanged)
	}
	if st.Lines.Total() != 3 { // modify one line (2) + add one line (1)
		t.Errorf("Lines = %+v", st.Lines)
	}
}

func TestDiffCommitsDeletedFile(t *testing.T) {
	r := NewRepository("test")
	h1 := r.CommitChanges("a", "v1", t0, Change{Path: "f", Content: []byte("x\ny\n")})
	h2 := r.CommitChanges("a", "v2", t0, Change{Path: "f", Delete: true})
	stat, perFile, err := r.DiffCommits(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Lines.Deleted != 2 || perFile["f"].Deleted != 2 {
		t.Errorf("stat = %+v perFile = %+v", stat, perFile)
	}
}

func TestCostModelShape(t *testing.T) {
	m := DefaultCostModel()
	small := m.CommitCost(100, 100)
	large := m.CommitCost(1_000_000, 500_000)
	if large <= small {
		t.Errorf("cost must grow with repo size: %v vs %v", small, large)
	}
	// Figure 13 endpoints: ~240 commits/min small, low tens at 1M files.
	tpSmall := float64(time.Minute) / float64(small)
	tpLarge := float64(time.Minute) / float64(large)
	if tpSmall < 150 || tpSmall > 300 {
		t.Errorf("small-repo throughput = %.0f/min, want ~240", tpSmall)
	}
	if tpLarge > 15 || tpLarge < 5 {
		t.Errorf("large-repo throughput = %.0f/min, want ~10", tpLarge)
	}
	if m.UpdateCost(1_000_000) < 10*time.Second {
		t.Errorf("stale update at 1M files should cost 10s of seconds, got %v", m.UpdateCost(1_000_000))
	}
}

func TestRepoSetRouting(t *testing.T) {
	s := NewRepoSet("default")
	feed := s.AddRepo("feed")
	tao := s.AddRepo("tao")
	if s.Route("feed/ranker.cconf") != feed {
		t.Error("feed path misrouted")
	}
	if s.Route("tao/topology.cconf") != tao {
		t.Error("tao path misrouted")
	}
	if s.Route("misc/thing.cconf") == feed || s.Route("misc/thing.cconf") == tao {
		t.Error("unrouted path must go to default")
	}
	// Longest prefix wins.
	feedsub := s.AddRepo("feed/models")
	if s.Route("feed/models/big.meta") != feedsub {
		t.Error("longest prefix must win")
	}
	if s.Route("feed/ranker.cconf") != feed {
		t.Error("shorter prefix must still route")
	}
}

func TestRepoSetCrossRepoCommit(t *testing.T) {
	s := NewRepoSet("default")
	s.AddRepo("feed")
	s.AddRepo("tao")
	shards := s.SplitDiff(&Diff{Author: "alice", Message: "cross", Changes: []Change{
		{Path: "feed/a", Content: []byte("1")},
		{Path: "tao/b", Content: []byte("2")},
		{Path: "other/c", Content: []byte("3")}}})
	if len(shards) != 3 {
		t.Fatalf("expected 3 shards, got %d", len(shards))
	}
	for repo, shard := range shards {
		if _, err := repo.Land(shard, t0); err != nil {
			t.Fatalf("landing in %s: %v", repo.Name, err)
		}
	}
	if b, err := s.ReadFile("feed/a"); err != nil || string(b) != "1" {
		t.Errorf("feed/a = %q, %v", b, err)
	}
	if s.TotalFiles() != 3 || s.TotalCommits() != 3 {
		t.Errorf("TotalFiles=%d TotalCommits=%d", s.TotalFiles(), s.TotalCommits())
	}
}

func TestRepoSetConcurrentIndependence(t *testing.T) {
	// Two committers racing in different repos never contend — the whole
	// point of the partitioned namespace.
	s := NewRepoSet("default")
	feed := s.AddRepo("feed")
	tao := s.AddRepo("tao")
	wcF := feed.Clone("alice")
	wcT := tao.Clone("bob")
	wcF.Write("feed/x", []byte("x"))
	wcT.Write("tao/y", []byte("y"))
	if _, err := wcF.Push("fx", t0); err != nil {
		t.Fatal(err)
	}
	if _, err := wcT.Push("ty", t0); err != nil {
		t.Fatal(err) // would be ErrOutOfDate in a single shared repo
	}
}

func TestPushAdvancesWorkingCopy(t *testing.T) {
	r := NewRepository("test")
	wc := r.Clone("alice")
	wc.Write("f", []byte("1"))
	h, err := wc.Push("one", t0)
	if err != nil {
		t.Fatal(err)
	}
	if wc.Base != h || wc.Dirty() {
		t.Error("push must advance and clean the working copy")
	}
	wc.Write("f", []byte("2"))
	if _, err := wc.Push("two", t0); err != nil {
		t.Fatal("sequential pushes from one clone must succeed:", err)
	}
}
