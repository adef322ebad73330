package vcs

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestQuickContentAddressing(t *testing.T) {
	s := NewStore()
	err := quick.Check(func(a, b []byte) bool {
		ha1 := s.PutBlob(a)
		ha2 := s.PutBlob(a)
		hb := s.PutBlob(b)
		if ha1 != ha2 {
			return false // identical content must share an address
		}
		if bytes.Equal(a, b) {
			return ha1 == hb
		}
		return ha1 != hb
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickBlobRoundTrip(t *testing.T) {
	s := NewStore()
	err := quick.Check(func(data []byte) bool {
		h := s.PutBlob(data)
		got, ok := s.Blob(h)
		return ok && bytes.Equal(got, data)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickDiffLinesSelfIsZero(t *testing.T) {
	err := quick.Check(func(content []byte) bool {
		return DiffLines(content, content).Total() == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickDiffLinesAntisymmetric(t *testing.T) {
	// Swapping old and new swaps added and deleted counts.
	err := quick.Check(func(a, b []byte) bool {
		ab := DiffLines(a, b)
		ba := DiffLines(b, a)
		return ab.Added == ba.Deleted && ab.Deleted == ba.Added
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickDiffLinesBounded(t *testing.T) {
	// Added is bounded by the new line count, Deleted by the old.
	err := quick.Check(func(a, b []byte) bool {
		st := DiffLines(a, b)
		return st.Added >= 0 && st.Deleted >= 0 &&
			st.Added <= len(splitLines(b)) && st.Deleted <= len(splitLines(a))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickTreeHashOrderIndependent(t *testing.T) {
	s := NewStore()
	err := quick.Check(func(names []string, contents [][]byte) bool {
		// Deduplicate names: a tree keeps one blob per path, so duplicate
		// names with different contents would make insertion order
		// meaningful and the property vacuous.
		seen := make(map[string]bool)
		var paths []string
		var blobs [][]byte
		n := len(names)
		if len(contents) < n {
			n = len(contents)
		}
		for i := 0; i < n; i++ {
			if !seen[names[i]] {
				seen[names[i]] = true
				paths = append(paths, names[i])
				blobs = append(blobs, contents[i])
			}
		}
		// One change at a time, forwards and backwards: the snapshots are
		// built through different intermediate trees.
		var t1, t2 Tree
		for i := 0; i < len(paths); i++ {
			t1 = t1.apply([]treeChange{{path: paths[i], blob: s.PutBlob(blobs[i])}})
		}
		for i := len(paths) - 1; i >= 0; i-- {
			t2 = t2.apply([]treeChange{{path: paths[i], blob: s.PutBlob(blobs[i])}})
		}
		return s.PutTree(t1) == s.PutTree(t2)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickCommitCostMonotone(t *testing.T) {
	m := DefaultCostModel()
	err := quick.Check(func(a, b uint32) bool {
		fa, fb := int(a%2_000_000), int(b%2_000_000)
		if fa > fb {
			fa, fb = fb, fa
		}
		return m.CommitCost(fa, 0) <= m.CommitCost(fb, 0)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
