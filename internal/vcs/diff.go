package vcs

import (
	"bytes"
)

// LineStat summarises a textual change the way Unix diff and the paper's
// Table 2 count it: adding a line is one line change, deleting a line is
// one line change, and modifying a line is two (one delete plus one add).
type LineStat struct {
	Added   int
	Deleted int
}

// Total is the paper's "number of line changes".
func (s LineStat) Total() int { return s.Added + s.Deleted }

func (s LineStat) add(o LineStat) LineStat {
	return LineStat{Added: s.Added + o.Added, Deleted: s.Deleted + o.Deleted}
}

// splitLines splits on '\n' keeping semantics stable for a trailing newline.
func splitLines(b []byte) [][]byte {
	if len(b) == 0 {
		return nil
	}
	lines := bytes.Split(b, []byte{'\n'})
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

func hashLines(lines [][]byte) []uint64 {
	hs := make([]uint64, len(lines))
	for i, l := range lines {
		hs[i] = HashBytes(l)
	}
	return hs
}

// maxDiffLines caps the quadratic LCS; beyond it we fall back to a
// multiset approximation (configs that large are PackageVessel territory
// anyway).
const maxDiffLines = 4000

// DiffLines computes the line-change statistic between two file versions.
func DiffLines(oldContent, newContent []byte) LineStat {
	if bytes.Equal(oldContent, newContent) {
		return LineStat{}
	}
	oldL := hashLines(splitLines(oldContent))
	newL := hashLines(splitLines(newContent))
	if len(oldL) > maxDiffLines || len(newL) > maxDiffLines {
		return multisetDiff(oldL, newL)
	}
	lcs := lcsLength(oldL, newL)
	return LineStat{Added: len(newL) - lcs, Deleted: len(oldL) - lcs}
}

// lcsLength computes the longest-common-subsequence length with the classic
// two-row DP over hashed lines.
func lcsLength(a, b []uint64) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// multisetDiff approximates the line stat by comparing line multisets; it
// ignores reordering, which is fine for the size statistics it feeds.
func multisetDiff(a, b []uint64) LineStat {
	counts := make(map[uint64]int, len(a))
	for _, h := range a {
		counts[h]++
	}
	added := 0
	for _, h := range b {
		if counts[h] > 0 {
			counts[h]--
		} else {
			added++
		}
	}
	deleted := 0
	for _, c := range counts {
		deleted += c
	}
	return LineStat{Added: added, Deleted: deleted}
}

// CommitStat describes a commit relative to its parent.
type CommitStat struct {
	FilesChanged int
	Lines        LineStat
}

// DiffCommits compares the trees of two commits (either may be ZeroHash,
// meaning the empty tree) and returns per-file line stats plus totals.
func (r *Repository) DiffCommits(oldCommit, newCommit Hash) (CommitStat, map[string]LineStat, error) {
	oldTree, err := r.treeOf(oldCommit)
	if err != nil {
		return CommitStat{}, nil, err
	}
	newTree, err := r.treeOf(newCommit)
	if err != nil {
		return CommitStat{}, nil, err
	}
	perFile := make(map[string]LineStat)
	var total CommitStat
	for _, p := range ChangedPaths(oldTree, newTree) {
		var ob, nb []byte // nil on the side that lacks the file
		if h, ok := oldTree.Get(p); ok {
			ob, _ = r.store.Blob(h)
		}
		if h, ok := newTree.Get(p); ok {
			nb, _ = r.store.Blob(h)
		}
		st := DiffLines(ob, nb)
		perFile[p] = st
		total.FilesChanged++
		total.Lines = total.Lines.add(st)
	}
	return total, perFile, nil
}

func (r *Repository) treeOf(commit Hash) (Tree, error) {
	if commit.IsZero() {
		return Tree{}, nil
	}
	c, ok := r.store.Commit(commit)
	if !ok {
		return Tree{}, ErrNotFound
	}
	t, _ := r.store.Tree(c.Tree)
	return t, nil
}
