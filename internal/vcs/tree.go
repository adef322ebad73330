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
// shares every other node, by pointer, with the snapshot it started from.
// A directory of more than maxWidth entries is held as content-defined
// chunks under an index node, so a commit into it copies one chunk and the
// index, not the whole directory: its cost follows the depth of the change,
// not the width of the directories on its path. The zero Tree is the empty
// snapshot.
//
// Paths use "/" separators and keep the flat namespace's behaviour: any
// string is a path, and a file "a" and a file "a/b" may both exist (an
// entry is identified by its name and whether it is a directory).
type Tree struct{ root *node }

// entry is one item of a node. In a node of height 0 it is a directory
// entry: a file (blob) or a subdirectory (dir). In an index node it is a
// ref to a chunk one height below (dir), named by the key of the last
// directory entry beneath that chunk.
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

// A directory of at most maxWidth entries is one node of height 0. A wider
// one is cut into chunks: a chunk ends after an entry whose key hash
// (keyHash) has chunkBits low zero bits, so chunks average 1<<chunkBits
// entries, and the directory's node is an index of refs to them (height 1).
// An index wider than maxWidth is chunked the same way, one level up: a ref
// ends a chunk of refs when its key hash has chunkBits more low zero bits,
// so every boundary of a level is also one of the level below. Boundaries
// depend on names alone, never on contents or history: an edit copies the
// one chunk that holds the file, and the shape and hash of a directory stay
// a function of the files it holds.
const (
	maxWidth  = 256
	chunkBits = 6
)

// node is one directory, or one chunk of a wide directory's entries or
// refs. It is never modified once built. No stored directory is empty
// except the root of the empty tree: a directory that loses its last file
// is dropped from its parent, so a tree's shape, and with it its hash,
// depends only on the files it holds.
type node struct {
	// entries are ordered as git orders them: a directory compares as
	// name+"/". Under that order an in-order walk yields byte-sorted paths,
	// and a path-sorted change list splits into one contiguous run per entry.
	// In an index node (height > 0) they are refs, ordered by the same keys.
	entries []entry
	hash    Hash
	files   int
	// height is 0 for a directory's entries, and one more than the height
	// of the chunks an index node's refs point at.
	height int
}

var emptyNode = newNode(nil, 0)

// newNode takes ownership of entries and seals them with their hash. A ref
// is encoded like a directory entry under its own kind byte, and a node of
// height 0 is encoded as a flat directory always was, so narrow directories
// keep their hashes (TestNarrowTreeHashesUnchanged).
func newNode(entries []entry, height int) *node {
	n := &node{entries: entries, height: height}
	size := len("tree ")
	for i := range entries {
		size += 1 + 4 + len(entries[i].name) + sha256.Size
	}
	// The encoding is garbage once hashed, so it is built on the stack when
	// it fits: a chunk or a narrow directory of ≈ 140 short names. A larger
	// buffer would cost more to clear than a heap one.
	var scratch [8 << 10]byte
	buf := scratch[:0]
	if size > len(scratch) {
		buf = make([]byte, 0, size)
	}
	buf = append(buf, "tree "...)
	for i := range entries {
		e := &entries[i]
		kind, h, files := byte('f'), e.blob, 1
		switch {
		case height > 0:
			kind, h, files = 'c', e.dir.hash, e.dir.files
		case e.isDir():
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

// keyHash is the fixed 64-bit FNV-1a hash of an entry's key: its name, then
// "/" for a directory. It places chunk boundaries, so it must never change.
func keyHash(name string, dir bool) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	if dir {
		h ^= '/'
		h *= fnvPrime64
	}
	return h
}

// endsChunk reports whether a chunk of items at level (the height of the
// node that holds them) ends after e.
func endsChunk(e *entry, level int) bool {
	mask := uint64(1)<<(chunkBits*(level+1)) - 1
	return keyHash(e.name, level == 0 && e.isDir())&mask == 0
}

// newRef seals items of one level as a chunk and returns the ref to it.
func newRef(items []entry, level int) entry {
	last := &items[len(items)-1]
	key := last.name
	if level == 0 && last.isDir() {
		key += "/"
	}
	return entry{name: key, dir: newNode(items, level)}
}

// newDir builds the node for a directory whose items, at height, are all
// given: an index whose chunks hold no more than maxWidth items in all
// becomes those items, and more than maxWidth items are chunked under a new
// index, until one node holds them.
func newDir(items []entry, height int) *node {
	for height > 0 {
		n := 0
		for i := range items {
			n += len(items[i].dir.entries)
		}
		if n > maxWidth {
			break
		}
		items, height = chunkItems(items), height-1
	}
	for len(items) > maxWidth {
		var refs []entry
		start := 0
		for i := range items {
			if i+1 == len(items) || endsChunk(&items[i], height) {
				refs = append(refs, newRef(items[start:i+1:i+1], height))
				start = i + 1
			}
		}
		if len(refs) == len(items) {
			break // every item ends a chunk: an index would be no narrower
		}
		items, height = refs, height+1
	}
	return newNode(items, height)
}

// chunkItems lists, in order, the items of the chunks refs point at.
func chunkItems(refs []entry) []entry {
	if len(refs) == 1 {
		return refs[0].dir.entries
	}
	n := 0
	for i := range refs {
		n += len(refs[i].dir.entries)
	}
	out := make([]entry, 0, n)
	for i := range refs {
		out = append(out, refs[i].dir.entries...)
	}
	return out
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
		e := n.lookup(name, isDir)
		if e == nil {
			return ZeroHash, false
		}
		if !isDir {
			return e.blob, true
		}
		n, path = e.dir, rest
	}
}

// lookup returns directory n's entry for (name, isDir), or nil. Through an
// index it follows the first ref whose key is not below the name's: only
// that chunk can hold it.
func (n *node) lookup(name string, isDir bool) *entry {
	for n.height > 0 {
		i, _ := slices.BinarySearchFunc(n.entries, name, func(e entry, name string) int {
			return cmpEntry(e.name, false, name, isDir)
		})
		if i == len(n.entries) {
			return nil
		}
		n = n.entries[i].dir
	}
	i, ok := slices.BinarySearchFunc(n.entries, name, func(e entry, name string) int {
		return cmpEntry(e.name, e.isDir(), name, isDir)
	})
	if !ok {
		return nil
	}
	return &n.entries[i]
}

// Paths lists every file path in the tree in byte order.
func (t Tree) Paths() []string {
	return t.node().appendPaths(make([]string, 0, t.Len()), "")
}

func (n *node) appendPaths(out []string, prefix string) []string {
	for i := range n.entries {
		if n.height > 0 {
			out = n.entries[i].dir.appendPaths(out, prefix)
		} else {
			out = n.entries[i].appendPaths(out, prefix)
		}
	}
	return out
}

// ChangedPaths lists, in byte order, every path whose content differs
// between the two trees or that only one of them holds. Directories and
// chunks whose hashes are equal are skipped without being entered, so the
// cost follows the size of the difference, not of the trees.
func ChangedPaths(old, new Tree) []string {
	if old.Hash() == new.Hash() {
		return nil
	}
	return appendChanged(nil, "", old.node(), new.node())
}

// appendChanged merges two directories known to differ.
func appendChanged(out []string, prefix string, a, b *node) []string {
	return appendChangedItems(out, prefix, a.entries, a.height, b.entries, b.height)
}

// appendChangedItems merges two runs of one directory's items, of heights
// ah and bh, that cover the same range of keys.
func appendChangedItems(out []string, prefix string, a []entry, ah int, b []entry, bh int) []string {
	// A directory that crossed a bound between the snapshots is indexed to
	// different heights: the taller side is brought down to the other's.
	for ; ah > bh; ah-- {
		a = chunkItems(a)
	}
	for ; bh > ah; bh-- {
		b = chunkItems(b)
	}
	if ah > 0 {
		return appendChangedChunks(out, prefix, a, b, ah)
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var c int
		switch {
		case i == len(a):
			c = 1
		case j == len(b):
			c = -1
		default:
			c = cmpEntry(a[i].name, a[i].isDir(), b[j].name, b[j].isDir())
		}
		switch {
		case c < 0:
			out = a[i].appendPaths(out, prefix)
			i++
		case c > 0:
			out = b[j].appendPaths(out, prefix)
			j++
		default:
			ea, eb := &a[i], &b[j]
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

// appendChangedChunks merges two runs of refs of one height that start at
// the same key. A chunk with the same hash on both sides holds the same
// entries and is skipped. Otherwise the shortest runs that end at one key
// are merged a level down: boundaries depend on names alone, so past the
// change the two sides' boundaries meet again at the first boundary entry
// both hold.
func appendChangedChunks(out []string, prefix string, a, b []entry, height int) []string {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].dir.hash == b[j].dir.hash {
			i, j = i+1, j+1
			continue
		}
		i2, j2 := i+1, j+1
		for {
			c := strings.Compare(a[i2-1].name, b[j2-1].name)
			if c == 0 {
				break
			}
			if c < 0 && i2 < len(a) {
				i2++
			} else if c > 0 && j2 < len(b) {
				j2++
			} else {
				// One side has no chunk left: the rest of the other is
				// merged with what remains of it.
				i2, j2 = len(a), len(b)
				break
			}
		}
		out = appendChangedItems(out, prefix, chunkItems(a[i:i2]), height-1, chunkItems(b[j:j2]), height-1)
		i, j = i2, j2
	}
	for ; i < len(a); i++ {
		out = a[i].dir.appendPaths(out, prefix)
	}
	for ; j < len(b); j++ {
		out = b[j].dir.appendPaths(out, prefix)
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
// bytes. Entries, chunks and subtrees no change reaches are carried over as
// they are, so they stay shared with n.
func (n *node) apply(changes []treeChange, off int) *node {
	b := dirBuilder{off: off, levels: make([][]entry, n.height+1)}
	// A flat directory may take many new entries; an index, one more ref
	// for a chunk a commit splits.
	grow := len(changes)
	if n.height > 0 {
		grow = 1
	}
	b.levels[n.height] = make([]entry, 0, len(n.entries)+grow)
	b.walk(n, changes)
	// The directory's last chunk at each level ends at its last item.
	top := len(b.levels) - 1
	for level := 0; level < top; level++ {
		if len(b.levels[level]) > 0 {
			b.endChunk(level)
		}
	}
	return newDir(b.levels[top], top)
}

// dirBuilder rebuilds one directory as a stream of items per level, the
// directory's entries at level 0 and refs above: a level below the top
// ends a chunk at each boundary and passes its ref up; the top level, the
// old node's height, collects all its items for newDir.
type dirBuilder struct {
	off    int
	levels [][]entry // the items of each level's open chunk
}

func (b *dirBuilder) push(level int, e entry) {
	b.levels[level] = append(b.levels[level], e)
	if level < len(b.levels)-1 && endsChunk(&e, level) {
		b.endChunk(level)
	}
}

// endChunk seals the open chunk of level and passes its ref up. The next
// chunk takes the rest of the buffer; a sealed chunk's capacity ends at its
// length, so it is never written again.
func (b *dirBuilder) endChunk(level int) {
	items := b.levels[level]
	b.levels[level] = items[len(items):]
	b.push(level+1, newRef(items[:len(items):len(items)], level))
}

// synced reports whether every level below height is at a chunk boundary,
// so that an unchanged node of that height can be taken whole: fed item by
// item, it would rebuild itself.
func (b *dirBuilder) synced(height int) bool {
	for level := 0; level < height; level++ {
		if len(b.levels[level]) > 0 {
			return false
		}
	}
	return true
}

// walk feeds node n's part of the directory, with the changes that fall in
// it, to the builder.
func (b *dirBuilder) walk(n *node, changes []treeChange) {
	// Room for the node's items, so that a chunk is copied at most once:
	// a sealed chunk holds its backing array.
	if open, need := b.levels[n.height], len(n.entries)+len(changes); n.height < len(b.levels)-1 && cap(open)-len(open) < need {
		b.levels[n.height] = append(make([]entry, 0, len(open)+need), open...)
	}
	if n.height == 0 {
		b.merge(n.entries, changes)
		return
	}
	for i := range n.entries {
		ref := &n.entries[i]
		// The changes up to this chunk's last key fall in it; the last
		// chunk takes those past every key.
		run := len(changes)
		if i+1 < len(n.entries) {
			run = 0
			for run < len(changes) {
				name, _, isDir := strings.Cut(changes[run].path[b.off:], "/")
				if cmpEntry(name, isDir, ref.name, false) > 0 {
					break
				}
				run++
			}
		}
		if run == 0 && b.synced(n.height) {
			b.push(n.height, *ref)
		} else {
			b.walk(ref.dir, changes[:run])
		}
		changes = changes[run:]
	}
}

// merge feeds a run of directory entries, with the changes that fall among
// them, to level 0.
func (b *dirBuilder) merge(entries []entry, changes []treeChange) {
	i := 0
	for len(changes) > 0 {
		// The next run of changes: one file, or everything under one
		// subdirectory.
		name, _, isDir := strings.Cut(changes[0].path[b.off:], "/")
		run := 1
		if isDir {
			under := changes[0].path[:b.off+len(name)+1]
			for run < len(changes) && strings.HasPrefix(changes[run].path, under) {
				run++
			}
		}
		for i < len(entries) && cmpEntry(entries[i].name, entries[i].isDir(), name, isDir) < 0 {
			b.push(0, entries[i])
			i++
		}
		child := emptyNode
		if i < len(entries) && entries[i].name == name && entries[i].isDir() == isDir {
			// Keep the existing name: the new one is a slice of a
			// caller's path, which it would hold in memory.
			name, child = entries[i].name, entries[i].dir
			i++
		}
		if isDir {
			if child = child.apply(changes[:run], b.off+len(name)+1); child.files > 0 {
				b.push(0, entry{name: name, dir: child})
			}
		} else if !changes[0].del {
			b.push(0, entry{name: name, blob: changes[0].blob})
		}
		changes = changes[run:]
	}
	for ; i < len(entries); i++ {
		b.push(0, entries[i])
	}
}
