package vcs

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by repository operations.
var (
	ErrOutOfDate = errors.New("vcs: working copy out of date; update before pushing")
	ErrConflict  = errors.New("vcs: true conflict: same file changed concurrently")
	ErrNotFound  = errors.New("vcs: object not found")
)

// Repository is a single shared repository: one head per branch ("master"
// only — Configerator's flow commits everything to master) plus the object
// store. Like a real git server it accepts a push only when the pusher's
// base equals the current head.
type Repository struct {
	Name  string
	store *Store
	head  Hash
	// commit log in order, for tailing (§3.4 "Git Tailer").
	log []Hash
	// syntheticFiles inflates FileCount for cost-model experiments that
	// need paper-scale repositories (hundreds of thousands of files)
	// without materializing them (Figures 13/14).
	syntheticFiles int
}

// SetSyntheticFileCount pretends n extra files exist at head. It affects
// only FileCount (and therefore the cost model) — reads and commits see
// the real tree. Simulation scaffolding for the throughput experiments.
func (r *Repository) SetSyntheticFileCount(n int) { r.syntheticFiles = n }

// NewRepository returns an empty repository.
func NewRepository(name string) *Repository {
	return &Repository{Name: name, store: NewStore()}
}

// Store exposes the object database (shared with working copies).
func (r *Repository) Store() *Store { return r.store }

// Head returns the current head commit hash (ZeroHash when empty).
func (r *Repository) Head() Hash { return r.head }

// CommitCount reports the length of the history.
func (r *Repository) CommitCount() int { return len(r.log) }

// Log returns the commit hashes in commit order (oldest first).
func (r *Repository) Log() []Hash {
	out := make([]Hash, len(r.log))
	copy(out, r.log)
	return out
}

// LogAfter returns commits made strictly after index n in commit order;
// this is the tailer's cursor interface.
func (r *Repository) LogAfter(n int) []Hash {
	if n < 0 {
		n = 0
	}
	if n >= len(r.log) {
		return nil
	}
	out := make([]Hash, len(r.log)-n)
	copy(out, r.log[n:])
	return out
}

// HeadTree returns the tree at head (empty tree when the repo is empty).
func (r *Repository) HeadTree() Tree {
	t, _ := r.treeOf(r.head) // the head is always in the store
	return t
}

// treeOf returns a commit's tree; ZeroHash is the empty tree.
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

// FileCount reports the number of files at head — the x-axis of Figure 13.
func (r *Repository) FileCount() int { return r.HeadTree().Len() + r.syntheticFiles }

// ReadFile returns the contents of path at head.
func (r *Repository) ReadFile(path string) ([]byte, error) {
	h, ok := r.HeadTree().Get(path)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	b, _ := r.store.Blob(h)
	return b, nil
}

// Paths lists all file paths at head, sorted.
func (r *Repository) Paths() []string { return r.HeadTree().Paths() }

// Change is one staged file operation within a Diff. Delete removes the
// file and ignores Content; otherwise Content is written, and a nil Content
// writes an empty file.
type Change struct {
	Path    string
	Content []byte
	Delete  bool
}

// Diff is a proposed change set: the base the author observed plus the file
// operations. It is the unit the landing strip serializes (§3.6).
type Diff struct {
	Base    Hash
	Author  string
	Message string
	Changes []Change
}

// applyChanges interns the changes' contents and builds the new tree from
// base tree + changes.
func (r *Repository) applyChanges(base Tree, changes []Change) Tree {
	tc := make([]treeChange, len(changes))
	for i, c := range changes {
		tc[i] = treeChange{path: c.Path, del: c.Delete}
		if !c.Delete {
			tc[i].blob = r.store.PutBlob(c.Content)
		}
	}
	return base.apply(tc)
}

// checkConflicts compares the tree at base with the head tree on n paths:
// it returns ErrConflict naming the first path whose content differs between
// the two, and ErrNotFound when base is not a commit of this repository.
func (r *Repository) checkConflicts(base Hash, n int, path func(i int) string) error {
	if base == r.head {
		return nil
	}
	baseTree, err := r.treeOf(base)
	if err != nil {
		return fmt.Errorf("%w: base %s", err, base)
	}
	headTree := r.HeadTree()
	for i := 0; i < n; i++ {
		p := path(i)
		bh, _ := baseTree.Get(p) // ZeroHash when absent
		hh, _ := headTree.Get(p)
		if bh != hh {
			return fmt.Errorf("%w: %s", ErrConflict, p)
		}
	}
	return nil
}

// Push applies a diff with strict git semantics: the diff's base must be
// the current head, otherwise ErrOutOfDate is returned and the committer
// must update and retry. This models the contention the paper describes:
// "even if diff X and diff Y change different files, git considers the
// engineer's local repository clone outdated".
func (r *Repository) Push(d *Diff, now time.Time) (Hash, error) {
	if d.Base != r.head {
		return ZeroHash, ErrOutOfDate
	}
	return r.commit(d, now)
}

// Land applies a diff on behalf of a committer without requiring the base
// to be the head — the landing strip's privilege. It fails only on a true
// conflict: some file touched by the diff changed between the diff's base
// and the current head.
func (r *Repository) Land(d *Diff, now time.Time) (Hash, error) {
	err := r.checkConflicts(d.Base, len(d.Changes), func(i int) string { return d.Changes[i].Path })
	if err != nil {
		return ZeroHash, err
	}
	return r.commit(d, now)
}

func (r *Repository) commit(d *Diff, now time.Time) (Hash, error) {
	newTree := r.applyChanges(r.HeadTree(), d.Changes)
	treeHash := r.store.PutTree(newTree)
	c := &Commit{Parent: r.head, Tree: treeHash, Author: d.Author, Time: now, Message: d.Message}
	h := r.store.PutCommit(c)
	r.head = h
	r.log = append(r.log, h)
	return h, nil
}

// CommitChanges is a convenience for tests and generators: stage changes on
// top of the current head and land them directly.
func (r *Repository) CommitChanges(author, message string, now time.Time, changes ...Change) Hash {
	h, err := r.Land(&Diff{Base: r.head, Author: author, Message: message, Changes: changes}, now)
	if err != nil {
		panic("vcs: CommitChanges on own head cannot conflict: " + err.Error())
	}
	return h
}

// WorkingCopy is an engineer's local clone: a base commit plus staged edits.
type WorkingCopy struct {
	repo    *Repository
	Base    Hash
	Author  string
	staged  map[string]Change
	ordered []string
}

// Clone returns a working copy at the current head.
func (r *Repository) Clone(author string) *WorkingCopy {
	return &WorkingCopy{repo: r, Base: r.head, Author: author, staged: make(map[string]Change)}
}

// Write stages new contents for path. The working copy holds content
// without copying it (the store takes its own copy when the diff lands), so
// the caller must not modify it afterwards.
func (w *WorkingCopy) Write(path string, content []byte) {
	if _, ok := w.staged[path]; !ok {
		w.ordered = append(w.ordered, path)
	}
	w.staged[path] = Change{Path: path, Content: content}
}

// Diff packages the staged edits as a pushable diff.
func (w *WorkingCopy) Diff(message string) *Diff {
	d := &Diff{Base: w.Base, Author: w.Author, Message: message}
	for _, p := range w.ordered {
		d.Changes = append(d.Changes, w.staged[p])
	}
	return d
}

// Update fast-forwards the base to the repository head, keeping staged
// edits. It returns ErrConflict if a staged file also changed upstream.
func (w *WorkingCopy) Update() error {
	err := w.repo.checkConflicts(w.Base, len(w.ordered), func(i int) string { return w.ordered[i] })
	if err != nil {
		return err
	}
	w.Base = w.repo.head
	return nil
}

// Push commits the staged edits, with git's strict base==head requirement.
// On success the working copy advances to the new head and is clean.
func (w *WorkingCopy) Push(message string, now time.Time) (Hash, error) {
	h, err := w.repo.Push(w.Diff(message), now)
	if err != nil {
		return ZeroHash, err
	}
	w.Base = h
	w.staged = make(map[string]Change)
	w.ordered = nil
	return h, nil
}
