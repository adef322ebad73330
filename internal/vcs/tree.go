package vcs

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strings"
)

// Tree is an immutable snapshot of the repository's files: a persistent
// directory tree in the git mold. Every directory is a node holding its
// entries in order, its own Merkle hash and the number of files beneath it;
// a commit copies and re-hashes only the nodes on the paths it touches and
// shares every other directory, by pointer, with the snapshot it started
// from. The zero Tree is the empty snapshot.
//
// Paths use "/" separators and keep the flat namespace's behaviour: any
// string is a path, and a file "a" and a file "a/b" may both exist (an
// entry is identified by its name and whether it is a directory).
type Tree struct{ root *node }

// entry is one name in a directory: a file (blob) or a subdirectory (dir).
type entry struct {
	name string
	blob Hash
	dir  *node // nil for a file
}

func (e *entry) isDir() bool { return e.dir != nil }

// appendPaths appends, in order, the path of every file at or under e.
func (e *entry) appendPaths(out []string, prefix string) []string {
	if e.isDir() {
		return e.dir.appendPaths(out, prefix+e.name+"/")
	}
	return append(out, prefix+e.name)
}

// node is one directory. It is never modified once built. No stored node is
// empty except the root of the empty tree: a directory that loses its last
// file is dropped from its parent, so a tree's shape, and with it its hash,
// depends only on the files it holds.
type node struct {
	// entries are ordered as git orders them: a directory compares as
	// name+"/". Under that order an in-order walk yields byte-sorted paths,
	// and a path-sorted change list splits into one contiguous run per entry.
	entries []entry
	hash    Hash
	files   int
}

var emptyNode = newNode(nil)

// newNode takes ownership of entries and seals them with their hash.
func newNode(entries []entry) *node {
	n := &node{entries: entries}
	size := len("tree ")
	for i := range entries {
		size += 1 + 4 + len(entries[i].name) + sha256.Size
	}
	buf := append(make([]byte, 0, size), "tree "...)
	for i := range entries {
		e := &entries[i]
		kind, h, files := byte('f'), e.blob, 1
		if e.isDir() {
			kind, h, files = 'd', e.dir.hash, e.dir.files
		}
		n.files += files
		buf = append(buf, kind)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.name)))
		buf = append(buf, e.name...)
		buf = append(buf, h[:]...)
	}
	n.hash = sha256.Sum256(buf)
	return n
}

// cmpEntry orders (name, isDir) keys: byte order of name for a file and of
// name+"/" for a directory, without building the latter.
func cmpEntry(aName string, aDir bool, bName string, bDir bool) int {
	n := min(len(aName), len(bName))
	if c := strings.Compare(aName[:n], bName[:n]); c != 0 {
		return c
	}
	// One name is a prefix of the other: compare the byte that follows it,
	// where a directory's name is followed by '/' and a file's by nothing.
	next := func(name string, dir bool) int {
		switch {
		case len(name) > n:
			return int(name[n])
		case dir:
			return '/'
		}
		return -1
	}
	return next(aName, aDir) - next(bName, bDir)
}

func (t Tree) node() *node {
	if t.root == nil {
		return emptyNode
	}
	return t.root
}

// Hash is the tree's content address: the Merkle hash of its root directory.
// Two trees holding the same files have the same hash, however they were
// built.
func (t Tree) Hash() Hash { return t.node().hash }

// Len reports the number of files in the tree.
func (t Tree) Len() int { return t.node().files }

// Get returns the blob hash stored at path.
func (t Tree) Get(path string) (Hash, bool) {
	n := t.node()
	for {
		name, rest, isDir := strings.Cut(path, "/")
		i, ok := slices.BinarySearchFunc(n.entries, name, func(e entry, name string) int {
			return cmpEntry(e.name, e.isDir(), name, isDir)
		})
		if !ok {
			return ZeroHash, false
		}
		if !isDir {
			return n.entries[i].blob, true
		}
		n, path = n.entries[i].dir, rest
	}
}

// Paths lists every file path in the tree in byte order.
func (t Tree) Paths() []string {
	return t.node().appendPaths(make([]string, 0, t.Len()), "")
}

func (n *node) appendPaths(out []string, prefix string) []string {
	for i := range n.entries {
		out = n.entries[i].appendPaths(out, prefix)
	}
	return out
}

// ChangedPaths lists, in byte order, every path whose content differs
// between the two trees or that only one of them holds. Directories whose
// hashes are equal are skipped without being entered, so the cost follows
// the size of the difference, not of the trees.
func ChangedPaths(old, new Tree) []string {
	if old.Hash() == new.Hash() {
		return nil
	}
	return appendChanged(nil, "", old.node(), new.node())
}

// appendChanged merges the entries of two directories known to differ.
func appendChanged(out []string, prefix string, a, b *node) []string {
	i, j := 0, 0
	for i < len(a.entries) || j < len(b.entries) {
		var c int
		switch {
		case i == len(a.entries):
			c = 1
		case j == len(b.entries):
			c = -1
		default:
			c = cmpEntry(a.entries[i].name, a.entries[i].isDir(), b.entries[j].name, b.entries[j].isDir())
		}
		switch {
		case c < 0:
			out = a.entries[i].appendPaths(out, prefix)
			i++
		case c > 0:
			out = b.entries[j].appendPaths(out, prefix)
			j++
		default:
			ea, eb := &a.entries[i], &b.entries[j]
			if !ea.isDir() {
				if ea.blob != eb.blob {
					out = append(out, prefix+ea.name)
				}
			} else if ea.dir.hash != eb.dir.hash {
				out = appendChanged(out, prefix+ea.name+"/", ea.dir, eb.dir)
			}
			i++
			j++
		}
	}
	return out
}

// treeChange sets (or, with del, removes) the blob at one path.
type treeChange struct {
	path string
	blob Hash
	del  bool
}

// apply returns the tree with the changes made, in order: when a path
// repeats, its last change wins. It reorders changes in place.
func (t Tree) apply(changes []treeChange) Tree {
	if len(changes) > 1 {
		slices.SortStableFunc(changes, func(a, b treeChange) int { return strings.Compare(a.path, b.path) })
		w := 0
		for i := range changes {
			if i+1 < len(changes) && changes[i+1].path == changes[i].path {
				continue
			}
			changes[w] = changes[i]
			w++
		}
		changes = changes[:w]
	}
	return Tree{t.node().apply(changes, 0)}
}

// apply rebuilds one directory in a single merge pass over its entries and
// the changes beneath it. The changes are sorted by path, hold no path
// twice, and all lie under this directory, whose own path is their first off
// bytes. Entries no change reaches are carried over as they are, so their
// subtrees stay shared with n.
func (n *node) apply(changes []treeChange, off int) *node {
	out := make([]entry, 0, len(n.entries)+len(changes))
	i := 0
	for len(changes) > 0 {
		// The next run of changes: one file, or everything under one
		// subdirectory.
		name, _, isDir := strings.Cut(changes[0].path[off:], "/")
		run := 1
		if isDir {
			under := changes[0].path[:off+len(name)+1]
			for run < len(changes) && strings.HasPrefix(changes[run].path, under) {
				run++
			}
		}
		for i < len(n.entries) && cmpEntry(n.entries[i].name, n.entries[i].isDir(), name, isDir) < 0 {
			out = append(out, n.entries[i])
			i++
		}
		child := emptyNode
		if i < len(n.entries) && n.entries[i].name == name && n.entries[i].isDir() == isDir {
			// Keep the existing name: the new one is a slice of a
			// caller's path, which it would hold in memory.
			name, child = n.entries[i].name, n.entries[i].dir
			i++
		}
		if isDir {
			if child = child.apply(changes[:run], off+len(name)+1); child.files > 0 {
				out = append(out, entry{name: name, dir: child})
			}
		} else if !changes[0].del {
			out = append(out, entry{name: name, blob: changes[0].blob})
		}
		changes = changes[run:]
	}
	return newNode(append(out, n.entries[i:]...))
}
