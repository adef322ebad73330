// Package vcs implements the version-control substrate that Configerator
// stores config source and compiled JSON in (§3.1 uses git).
//
// It is a content-addressed object store in the git mold: blobs hold file
// contents, trees are Merkle directory trees mapping paths to blobs that
// share unchanged directories (and the unchanged chunks of a wide one)
// between snapshots, and commits chain trees
// with parents, authors and timestamps. On top of that it provides working
// copies with git's push semantics (a push is rejected whenever the local
// clone is out of date, even if the changed files are disjoint — the exact
// behaviour that motivates the paper's landing strip, §3.6), line-level
// diffs for the update-size statistics (Table 2), a calibrated cost model
// that charges git's slowdown on large repositories in simulated time
// (Figure 13), and a multi-repository set serving a partitioned global
// namespace (§3.6).
package vcs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"
)

// Hash is a SHA-256 content address.
type Hash [32]byte

// ZeroHash is the absent-object sentinel (e.g. the parent of a root commit).
var ZeroHash Hash

// String renders the abbreviated hex form.
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// IsZero reports whether h is the sentinel.
func (h Hash) IsZero() bool { return h == ZeroHash }

func hashBlob(data []byte) Hash {
	s := sha256.New()
	s.Write([]byte("blob "))
	var lenbuf [8]byte
	binary.BigEndian.PutUint64(lenbuf[:], uint64(len(data)))
	s.Write(lenbuf[:])
	s.Write(data)
	var h Hash
	copy(h[:], s.Sum(nil))
	return h
}

// Commit is one node of the history DAG.
type Commit struct {
	Parent  Hash // ZeroHash for the root commit
	Tree    Hash
	Author  string
	Time    time.Time
	Message string
}

func (c *Commit) hash() Hash {
	s := sha256.New()
	fmt.Fprintf(s, "commit %x %x %s %d %s", c.Parent, c.Tree, c.Author, c.Time.UnixNano(), c.Message)
	var h Hash
	copy(h[:], s.Sum(nil))
	return h
}

// Store is the content-addressed object database shared by a repository and
// all of its working copies.
type Store struct {
	blobs   map[Hash][]byte
	trees   map[Hash]Tree
	commits map[Hash]*Commit
}

// NewStore returns an empty object database.
func NewStore() *Store {
	return &Store{
		blobs:   make(map[Hash][]byte),
		trees:   make(map[Hash]Tree),
		commits: make(map[Hash]*Commit),
	}
}

// PutBlob interns data and returns its address.
func (s *Store) PutBlob(data []byte) Hash {
	h := hashBlob(data)
	if _, ok := s.blobs[h]; !ok {
		cp := make([]byte, len(data))
		copy(cp, data)
		s.blobs[h] = cp
	}
	return h
}

// Blob returns the contents at h. The second result reports existence.
func (s *Store) Blob(h Hash) ([]byte, bool) {
	b, ok := s.blobs[h]
	return b, ok
}

// PutTree interns a tree snapshot under its root hash. Trees are immutable,
// so the store keeps the snapshot itself: the directories it shares with
// earlier snapshots are stored once.
func (s *Store) PutTree(t Tree) Hash {
	h := t.Hash()
	if _, ok := s.trees[h]; !ok {
		s.trees[h] = t
	}
	return h
}

// Tree returns the tree at h.
func (s *Store) Tree(h Hash) (Tree, bool) {
	t, ok := s.trees[h]
	return t, ok
}

// PutCommit interns a commit.
func (s *Store) PutCommit(c *Commit) Hash {
	h := c.hash()
	if _, ok := s.commits[h]; !ok {
		cp := *c
		s.commits[h] = &cp
	}
	return h
}

// Commit returns the commit at h.
func (s *Store) Commit(h Hash) (*Commit, bool) {
	c, ok := s.commits[h]
	return c, ok
}

// Objects reports the number of stored objects of each kind.
func (s *Store) Objects() (blobs, trees, commits int) {
	return len(s.blobs), len(s.trees), len(s.commits)
}
