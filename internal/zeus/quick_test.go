package zeus

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestQuickDataTreeMonotoneZxid(t *testing.T) {
	// Whatever the op sequence, the tree's applied zxid never decreases
	// and stale ops never clobber newer state.
	err := quick.Check(func(zxids []int64, datas [][]byte) bool {
		tree := NewDataTree()
		var highest int64
		var lastData []byte
		n := len(zxids)
		if len(datas) < n {
			n = len(datas)
		}
		for i := 0; i < n; i++ {
			z := zxids[i]
			if z < 0 {
				z = -z
			}
			applied := tree.Apply(WriteOp{Zxid: z, Path: "/p", Data: datas[i], Version: int64(i)})
			if applied != (z > highest) {
				return false
			}
			if applied {
				highest = z
				lastData = datas[i]
			}
			if tree.LastZxid() != highest {
				return false
			}
		}
		if highest == 0 {
			return true
		}
		rec := tree.Get("/p")
		return rec != nil && string(rec.Data) == string(lastData)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickChangedAfterPartitions(t *testing.T) {
	// ChangedAfter(k) returns exactly the paths whose newest op has zxid > k,
	// each once, in zxid order.
	err := quick.Check(func(count uint8, cut uint8) bool {
		tree := NewDataTree()
		n := int(count%50) + 1
		for i := 1; i <= n; i++ {
			tree.Apply(WriteOp{Zxid: int64(i * 2), Path: fmt.Sprintf("/p%d", i), Version: 1})
		}
		k := int64(cut) % int64(n*2+2)
		ups := tree.ChangedAfter(k)
		last := k
		for _, u := range ups {
			if u.Zxid <= last {
				return false
			}
			last = u.Zxid
		}
		// Count check: paths with zxid in (k, 2n] stepping by 2.
		want := 0
		for i := 1; i <= n; i++ {
			if int64(i*2) > k {
				want++
			}
		}
		return len(ups) == want
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
