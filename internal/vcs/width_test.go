package vcs

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// wideDirPath is file i of a directory laid out as author_change's svc/: 3,000
// sources, each beside its compiled artifact.
func wideDirPath(i int) string {
	ext := ".cconf"
	if i%2 == 1 {
		ext = ".json"
	}
	return fmt.Sprintf("svc/service_%04d%s", i/2, ext)
}

const wideDirFiles = 6000

// wideDirRepo returns a repository holding wideDirFiles files in svc/ and a
// few in a sibling directory. Every file starts with the same content, so
// the store holds one blob and the edits measured below are all its growth.
func wideDirRepo() *Repository {
	repo := NewRepository("wide")
	changes := []Change{{Path: "lib/a.cinc", Content: []byte("v0")}, {Path: "lib/b.cinc", Content: []byte("v0")}}
	for i := 0; i < wideDirFiles; i++ {
		changes = append(changes, Change{Path: wideDirPath(i), Content: []byte("v0")})
	}
	repo.CommitChanges("u", "import", time.Unix(0, 0), changes...)
	return repo
}

// wideDirCommits makes count one-file commits into svc/ and returns the
// bytes each allocated and, after a collection, still holds. The contents
// are built first, so the figures are the repository's alone.
func wideDirCommits(repo *Repository, count int) (allocated, retained float64) {
	contents := make([][]byte, count)
	for i := range contents {
		contents[i] = strconv.AppendInt([]byte("v"), int64(i+1), 10)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < count; i++ {
		repo.CommitChanges("u", "edit", time.Unix(int64(i+1), 0), Change{Path: wideDirPath(i * 7919 % wideDirFiles), Content: contents[i]})
	}
	runtime.ReadMemStats(&after)
	allocated = float64(after.TotalAlloc-before.TotalAlloc) / float64(count)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(count)
	runtime.KeepAlive(repo)
	runtime.KeepAlive(contents)
	return allocated, retained
}

// TestWideDirectoryCommitCost is the width gate at the repository level: a
// one-file commit into a 6,000-entry directory copies and hashes one chunk
// and the directory's index, not the directory, so it allocates at most
// 24 KB and retains at most 16 KB. A flat directory of that width costs
// about 640 KB and 345 KB.
func TestWideDirectoryCommitCost(t *testing.T) {
	const allocLimit, retainLimit = 24 << 10, 16 << 10
	allocated, retained := wideDirCommits(wideDirRepo(), 200)
	t.Logf("one-file commit into a %d-entry directory: %.0f B allocated, %.0f B retained", wideDirFiles, allocated, retained)
	if allocated > allocLimit {
		t.Errorf("a one-file commit into a %d-entry directory allocates %.0f B, more than %d", wideDirFiles, allocated, allocLimit)
	}
	if retained > retainLimit {
		t.Errorf("a one-file commit into a %d-entry directory retains %.0f B, more than %d", wideDirFiles, retained, retainLimit)
	}
}

// BenchmarkWideDirectoryCommit times a one-file commit into the
// 6,000-entry directory of TestWideDirectoryCommitCost.
func BenchmarkWideDirectoryCommit(b *testing.B) {
	repo := wideDirRepo()
	contents := make([][]byte, b.N)
	for i := range contents {
		contents[i] = strconv.AppendInt([]byte("v"), int64(i+1), 10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.CommitChanges("u", "edit", time.Unix(int64(i+1), 0), Change{Path: wideDirPath(i * 7919 % wideDirFiles), Content: contents[i]})
	}
}
