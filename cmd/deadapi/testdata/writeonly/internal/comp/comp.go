// Package comp writes six names; the check must report the two that
// nothing reads.
package comp

import "configerator/internal/obs"

// HistRead is read by name in cmd/show.
const HistRead = "comp.hist.read"

func Work(r *obs.Registry, kind string) {
	r.Add("comp.read", 1)            // read by comp_test.go
	r.Add("comp.unread", 1)          // written here and in comp_test.go, read nowhere
	r.Observe(HistRead, 1)           // read through the constant
	r.Observe("comp.hist.unread", 1) // read nowhere
	r.Add("comp.kind."+kind, 1)      // built at run time: skipped
	r.Add("comp.nested", 1)          // read inside another Add's argument in comp_test.go
}
