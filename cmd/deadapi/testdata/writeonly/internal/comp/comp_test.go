package comp

import (
	"sync/atomic"
	"testing"

	"configerator/internal/obs"
)

func TestWork(t *testing.T) {
	r := &obs.Registry{}
	r.Add("comp.unread", 1) // a test's write is not a read
	Work(r, "x")
	if r.Get("comp.read") != 1 {
		t.Fail()
	}
	var n atomic.Int64
	n.Add(r.Get("comp.nested")) // an Add whose first argument is not a name reads it
}
