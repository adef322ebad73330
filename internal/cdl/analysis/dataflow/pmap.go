package dataflow

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// pmap is a persistent map keyed by string: a hash array mapped trie, 32
// ways per level over a 64-bit hash of the key. An update copies only the
// nodes on the key's path, so a derived map shares every other subtree
// with the map it came from, and the old map stays valid for its readers.
// The zero pmap is empty.
//
// Updates take an owner token. A node created under a token is edited in
// place by later updates under the same token, so one derivation's batch
// of changes copies each touched node once; a derivation drops its token
// when it publishes the map, which freezes every node it made.
type pmap[V any] struct {
	root *pnode[V]
}

const (
	pbits = 5
	pmask = 1<<pbits - 1
	// Past this shift the hash is used up; keys that still collide share a
	// bucket node searched linearly.
	phashBits = 64
)

type pnode[V any] struct {
	owner  *byte
	bitmap uint32 // which of the 32 positions hold a slot; 0 in a bucket
	slots  []pslot[V]
}

// pslot is a leaf (key, val) or, when child is set, a subtree. A leaf keeps
// its key's hash so that a split does not hash the key again.
type pslot[V any] struct {
	hash  uint64
	key   string
	val   V
	child *pnode[V]
}

// pseed is fixed for the process: two snapshots must hash a key alike.
var pseed = maphash.MakeSeed()

func phash(key string) uint64 { return maphash.String(pseed, key) }

func (m pmap[V]) get(key string) (V, bool) {
	return m.root.get(phash(key), key)
}

// set binds key to val, editing in place the nodes owner made.
func (m *pmap[V]) set(owner *byte, key string, val V) {
	m.root = m.root.set(owner, phash(key), 0, key, val)
}

// del removes key, if present.
func (m *pmap[V]) del(owner *byte, key string) {
	if n, ok := m.root.del(owner, phash(key), 0, key); ok {
		m.root = n
	}
}

func (n *pnode[V]) get(h uint64, key string) (V, bool) {
	for shift := uint(0); n != nil; shift += pbits {
		if shift >= phashBits {
			for i := range n.slots {
				if n.slots[i].key == key {
					return n.slots[i].val, true
				}
			}
			break
		}
		bit := uint32(1) << (h >> shift & pmask)
		if n.bitmap&bit == 0 {
			break
		}
		s := &n.slots[bits.OnesCount32(n.bitmap&(bit-1))]
		if s.child == nil {
			if s.key == key {
				return s.val, true
			}
			break
		}
		n = s.child
	}
	var zero V
	return zero, false
}

// editable returns n itself when owner made it, and a copy owner may edit
// otherwise.
func (n *pnode[V]) editable(owner *byte) *pnode[V] {
	if n == nil {
		return &pnode[V]{owner: owner}
	}
	if n.owner == owner {
		return n
	}
	return &pnode[V]{owner: owner, bitmap: n.bitmap, slots: slices.Clone(n.slots)}
}

func (n *pnode[V]) set(owner *byte, h uint64, shift uint, key string, val V) *pnode[V] {
	n = n.editable(owner)
	if shift >= phashBits {
		for i := range n.slots {
			if n.slots[i].key == key {
				n.slots[i].val = val
				return n
			}
		}
		n.slots = append(n.slots, pslot[V]{hash: h, key: key, val: val})
		return n
	}
	bit := uint32(1) << (h >> shift & pmask)
	i := bits.OnesCount32(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		n.bitmap |= bit
		n.slots = slices.Insert(n.slots, i, pslot[V]{hash: h, key: key, val: val})
		return n
	}
	s := &n.slots[i]
	switch {
	case s.child != nil:
		s.child = s.child.set(owner, h, shift+pbits, key, val)
	case s.key == key:
		s.val = val
	default:
		// Two keys share this position: push the resident leaf a level down.
		var child *pnode[V]
		child = child.set(owner, s.hash, shift+pbits, s.key, s.val)
		child = child.set(owner, h, shift+pbits, key, val)
		*s = pslot[V]{child: child}
	}
	return n
}

// del reports whether key was present; n is returned unchanged when not.
func (n *pnode[V]) del(owner *byte, h uint64, shift uint, key string) (*pnode[V], bool) {
	if n == nil {
		return n, false
	}
	var bit uint32
	i := -1
	if shift >= phashBits {
		i = slices.IndexFunc(n.slots, func(s pslot[V]) bool { return s.key == key })
	} else if bit = uint32(1) << (h >> shift & pmask); n.bitmap&bit != 0 {
		i = bits.OnesCount32(n.bitmap & (bit - 1))
	}
	if i < 0 {
		return n, false
	}
	if child := n.slots[i].child; child != nil {
		child, ok := child.del(owner, h, shift+pbits, key)
		if !ok {
			return n, false
		}
		n = n.editable(owner)
		switch {
		case len(child.slots) == 0:
			n.bitmap &^= bit
			n.slots = slices.Delete(n.slots, i, i+1)
		case len(child.slots) == 1 && child.slots[0].child == nil:
			// A lone leaf moves back up, so a map's shape does not
			// remember the keys it once held.
			n.slots[i] = child.slots[0]
		default:
			n.slots[i].child = child
		}
		return n, true
	}
	if n.slots[i].key != key {
		return n, false
	}
	n = n.editable(owner)
	n.bitmap &^= bit
	n.slots = slices.Delete(n.slots, i, i+1)
	return n, true
}
