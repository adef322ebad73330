package dataflow

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"

	"configerator/internal/cdl"
)

// fileRec is what a snapshot keeps per file of its universe. The content
// hash and the import list make the file's closure key computable without
// reading it again, which is what lets a derivation re-key an importer of
// an edited file for free.
type fileRec struct {
	// hash is the SHA-256 of the content; imports the lexer-scanned direct
	// imports, in order. Both are zero unless scanned: the file was read
	// and lexed.
	hash    [sha256.Size]byte
	imports []string
	scanned bool
	// key is the Merkle hash of the import closure: path, content hash and
	// each direct import's key, in import order. It is "" when the closure
	// holds a cycle or an unscanned file; such a closure is never memoized.
	key string
	sum *summary
}

// edges are the imports the summary followed: none for a stub, and for a
// module that parses exactly the scanned list (see cdl.ScanImports).
func (rc *fileRec) edges() []string {
	if rc.sum.err != "" {
		return nil
	}
	return rc.imports
}

// Derive returns the snapshot of the view fs shows, given that it differs
// from r's view only at the changed paths (edited, added or deleted) and in
// its roots: addRoots are roots of the new view, dropRoots no longer are
// (a path in both is dropped). Only changed files are read, scanned and
// hashed. Only their cone — the changed files of r's universe and their
// transitive importers — is re-keyed and taken through the index memo
// again, which reads a cone file only on a memo miss, to parse it. Every
// other summary, and every index entry the change does not move, is shared
// with r, which stays valid.
func (r *Repo) Derive(fs cdl.FileSystem, changed, addRoots, dropRoots []string) *Repo {
	b := &builder{
		ix:     r.ix,
		fs:     fs,
		parent: r,
		owner:  new(byte),
		dirty:  make(map[string]bool, len(changed)),
		cone:   make(map[string]bool),
		recs:   make(map[string]*fileRec),
		reads:  make(map[string]readResult),
		keyed:  make(map[string]bool),
		keying: make(map[string]bool),
		sums:   make(map[string]*summary),
	}
	next := &Repo{ix: r.ix, Roots: r.Roots, Errors: r.Errors}
	if len(addRoots) > 0 || len(dropRoots) > 0 {
		next.Roots = mergeRoots(r.Roots, addRoots, dropRoots)
	}

	// The cone: every file of the old universe whose closure can differ.
	queue := make([]string, 0, len(changed))
	for _, path := range changed {
		b.dirty[path] = true
		if _, ok := r.files.get(path); ok && !b.cone[path] {
			b.cone[path] = true
			queue = append(queue, path)
		}
	}
	for len(queue) > 0 {
		path := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		importers, _ := r.importers.get(path)
		for _, imp := range importers {
			if !b.cone[imp] {
				b.cone[imp] = true
				queue = append(queue, imp)
			}
		}
	}

	// Summarize top-down from the roots whose summary is missing or stale.
	// An importer of a cone file is itself in the cone, so whatever part of
	// the cone this does not reach is no longer reachable from any root.
	start := make([]string, 0, len(b.cone)+len(addRoots))
	for path := range b.cone {
		start = append(start, path)
	}
	start = append(start, addRoots...)
	sort.Strings(start) // a fixed order keeps the build counters repeatable
	for _, path := range start {
		if next.isRoot(path) && b.published(path) == nil {
			b.summarize(path)
			for len(b.pending) > 0 {
				path := b.pending[len(b.pending)-1]
				b.pending = b.pending[:len(b.pending)-1]
				if b.published(path) == nil {
					b.summarize(path)
				}
			}
		}
	}

	b.commit(next, dropRoots)
	return next
}

// mergeRoots returns old plus add minus drop, sorted.
func mergeRoots(old, add, drop []string) []string {
	out := make([]string, 0, len(old)+len(add))
	out = append(append(out, old...), add...)
	sort.Strings(out)
	out = slices.Compact(out)
	if len(drop) == 0 {
		return out
	}
	dropped := make(map[string]bool, len(drop))
	for _, path := range drop {
		dropped[path] = true
	}
	return slices.DeleteFunc(out, func(path string) bool { return dropped[path] })
}

type readResult struct {
	src []byte
	err error
}

// builder runs one derivation: it loads the changed files, re-keys the
// cone, consults the index memo, and composes missing summaries bottom-up.
type builder struct {
	ix     *Index
	fs     cdl.FileSystem
	parent *Repo
	owner  *byte // edits the new snapshot's maps in place
	// dirty are the changed paths; cone the files of the parent's universe
	// whose record and summary cannot be taken over as they are.
	dirty, cone map[string]bool
	// recs are the records made this session, reads the files read (each
	// once), keyed and keying the finished and the running key computations.
	recs   map[string]*fileRec
	reads  map[string]readResult
	keyed  map[string]bool
	keying map[string]bool
	// sums are the summaries published this session. stack is the chain of
	// builds in progress, low the shallowest stack index the current build
	// saw again below it (its own index when none), and pending the closure
	// files a published summary names that have no summary yet.
	sums    map[string]*summary
	stack   []string
	low     int
	pending []string
}

func (b *builder) read(path string) ([]byte, error) {
	res, ok := b.reads[path]
	if !ok {
		res.src, res.err = b.fs.ReadFile(path)
		b.reads[path] = res
	}
	return res.src, res.err
}

// rec returns path's record in the new snapshot: the parent's when the file
// is outside the cone, a copy awaiting its new key when only something it
// imports changed, and a fresh load when the file is changed or new.
func (b *builder) rec(path string) *fileRec {
	if rc := b.recs[path]; rc != nil {
		return rc
	}
	old, known := b.parent.files.get(path)
	if known && !b.cone[path] {
		return old
	}
	rc := &fileRec{}
	if known && !b.dirty[path] {
		rc.hash, rc.imports, rc.scanned = old.hash, old.imports, old.scanned
	} else if src, err := b.read(path); err == nil {
		if imports, err := cdl.ScanImports(path, src); err == nil {
			rc.hash, rc.imports, rc.scanned = sha256.Sum256(src), imports, true
		}
	}
	b.recs[path] = rc
	return rc
}

// key returns path's closure key, computing it for a record of this
// session. A file met again while its own key is being computed is on an
// import cycle, which leaves every participant (and so every importer of
// one) without a key.
func (b *builder) key(path string) string {
	rc := b.rec(path)
	if b.recs[path] == nil || b.keyed[path] {
		return rc.key
	}
	if b.keying[path] || !rc.scanned {
		return ""
	}
	b.keying[path] = true
	h := sha256.New()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write(rc.hash[:])
	ok := true
	for _, imp := range rc.imports {
		dep := b.key(imp)
		if dep == "" {
			ok = false
			break
		}
		h.Write([]byte{0})
		h.Write([]byte(dep))
	}
	delete(b.keying, path)
	if ok {
		rc.key = hex.EncodeToString(h.Sum(nil))
	}
	b.keyed[path] = true
	return rc.key
}

// published returns path's summary in the new snapshot, if it has one yet.
func (b *builder) published(path string) *summary {
	if s, ok := b.sums[path]; ok {
		return s
	}
	if !b.cone[path] {
		return b.parent.sum(path)
	}
	return nil
}

// publish makes s the new snapshot's summary of path and queues the closure
// files that still lack one: under a memo hit nothing below was visited,
// and on a cycle the other participants were only built as parts of s.
func (b *builder) publish(path string, s *summary) {
	b.sums[path] = s
	for f := range s.reach {
		if b.published(f) == nil {
			b.pending = append(b.pending, f)
		}
	}
}

// summarize returns path's summary for the import site being built: the
// published one, a memo hit, or a fresh build.
//
// Import cycles are tolerated, not modelled (the import-cycle lint analyzer
// owns reporting): an import of a file whose build is in progress yields an
// empty stub. A summary built over such a stub is only good under the stack
// that produced it, so it is handed to the importer and not published; the
// same goes for reusing a published summary whose closure holds a file on
// the stack. What is published for a file is therefore always what a build
// starting at that file yields, whatever order the roots come in.
func (b *builder) summarize(path string) *summary {
	if s := b.published(path); s != nil && !b.reachesStack(s) {
		return s
	}
	if i := slices.Index(b.stack, path); i >= 0 {
		b.low = min(b.low, i)
		return &summary{path: path, bindings: map[string]*binding{},
			reach: map[string]bool{path: true}}
	}
	key := b.key(path)
	if key != "" {
		if s := b.ix.lookup(key); s != nil {
			b.ix.count(counterMemo, 1)
			b.publish(path, s)
			return s
		}
	}
	at, outer := len(b.stack), b.low
	b.stack, b.low = append(b.stack, path), at
	s := b.build(path)
	low := b.low
	b.stack, b.low = b.stack[:at], min(outer, low)
	b.ix.count(counterRecompute, 1)
	if low < at {
		return s
	}
	if key != "" && s.err == "" {
		b.ix.store(key, s)
	}
	if _, ok := b.sums[path]; !ok {
		b.publish(path, s)
	}
	return s
}

func (b *builder) reachesStack(s *summary) bool {
	for _, f := range b.stack {
		if s.reach[f] {
			return true
		}
	}
	return false
}

// multimapEdit collects one derivation's changes to an inverse index.
type multimapEdit struct {
	base  pmap[[]string]
	lists map[string][]string // the new list of every key touched
}

func (e *multimapEdit) get(key string) []string {
	if l, ok := e.lists[key]; ok {
		return l
	}
	l, _ := e.base.get(key)
	return l
}

// edit returns key's list for editing: a copy the first time.
func (e *multimapEdit) edit(key string) []string {
	l, ok := e.lists[key]
	if !ok {
		l = slices.Clone(e.get(key))
	}
	return l
}

// move takes member off the lists of the old keys that are not among the
// new ones, and puts it on the lists of the new keys that were not among
// the old. It returns the keys member left.
func (e *multimapEdit) move(member string, old, new []string) (left []string) {
	if slices.Equal(old, new) {
		return nil
	}
	for i, key := range old {
		if !slices.Contains(new, key) && !slices.Contains(old[:i], key) {
			l := e.edit(key)
			at := slices.Index(l, member)
			e.lists[key] = slices.Delete(l, at, at+1)
			left = append(left, key)
		}
	}
	for i, key := range new {
		if !slices.Contains(old, key) && !slices.Contains(new[:i], key) {
			e.lists[key] = append(e.edit(key), member)
		}
	}
	return left
}

func (e *multimapEdit) commit(owner *byte) pmap[[]string] {
	out := e.base
	for key, l := range e.lists {
		if len(l) == 0 {
			out.del(owner, key)
		} else {
			out.set(owner, key, l)
		}
	}
	return out
}

// consumerKeys lists the external-input keys a summary's own sites read.
func consumerKeys(s *summary) []string {
	var keys []string
	for _, c := range s.consumers {
		if k := (Origin{Kind: c.Kind, Name: c.Name}).key(); !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// commit fills next's maps: the published records go in, the inverse
// indexes follow the edges and consumer sites that moved, and files no
// root reaches any more go out.
func (b *builder) commit(next *Repo, dropRoots []string) {
	importers := &multimapEdit{base: b.parent.importers, lists: make(map[string][]string)}
	consumers := &multimapEdit{base: b.parent.consumers, lists: make(map[string][]string)}
	next.files = b.parent.files
	var errsOut, errsIn []string

	// replace swaps path's record for rc (nil: the file leaves the universe)
	// and returns the imports it no longer has.
	replace := func(path string, rc *fileRec) (left []string) {
		var oldEdges, newEdges, oldKeys, newKeys []string
		if old, ok := b.parent.files.get(path); ok {
			oldEdges, oldKeys = old.edges(), consumerKeys(old.sum)
			if old.sum.err != "" {
				errsOut = append(errsOut, old.sum.err)
			}
		}
		if rc != nil {
			newEdges, newKeys = rc.edges(), consumerKeys(rc.sum)
			if rc.sum.err != "" {
				errsIn = append(errsIn, rc.sum.err)
			}
			next.files.set(b.owner, path, rc)
		} else {
			next.files.del(b.owner, path)
		}
		consumers.move(path, oldKeys, newKeys)
		return importers.move(path, oldEdges, newEdges)
	}

	// suspects may have lost their last way down from a root: a dropped
	// root, the part of the cone no build reached, a file an edit stopped
	// importing.
	suspects := append([]string(nil), dropRoots...)
	for path, rc := range b.recs {
		// A record without a summary was only loaded for an importer's key.
		if s, ok := b.sums[path]; ok {
			rc.sum = s
			suspects = append(suspects, replace(path, rc)...)
		}
	}
	for path := range b.cone {
		if _, ok := b.sums[path]; !ok {
			suspects = append(suspects, path)
		}
	}

	// A suspect with no root among its transitive importers is dead, and so
	// is every importer met on the way up; what the dead imported is suspect
	// in turn.
	var seen map[string]bool
	var rooted func(path string) bool
	rooted = func(path string) bool {
		if next.isRoot(path) {
			return true
		}
		seen[path] = true
		for _, imp := range importers.get(path) {
			if !seen[imp] && rooted(imp) {
				return true
			}
		}
		return false
	}
	for len(suspects) > 0 {
		path := suspects[len(suspects)-1]
		suspects = suspects[:len(suspects)-1]
		if _, ok := next.files.get(path); !ok {
			continue
		}
		seen = make(map[string]bool)
		if rooted(path) {
			continue
		}
		for f := range seen {
			suspects = append(suspects, replace(f, nil)...)
		}
	}

	next.importers = importers.commit(b.owner)
	next.consumers = consumers.commit(b.owner)
	if len(errsOut) > 0 || len(errsIn) > 0 {
		errs := append(slices.Clone(next.Errors), errsIn...)
		for _, e := range errsOut {
			if i := slices.Index(errs, e); i >= 0 {
				errs = slices.Delete(errs, i, i+1)
			}
		}
		sort.Strings(errs)
		next.Errors = errs
	}
}
