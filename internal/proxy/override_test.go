package proxy

import (
	"slices"
	"testing"
	"time"
)

func TestOverrideWinsOverCacheAndClears(t *testing.T) {
	r := newRig(t, 11)
	r.write(t, "/configs/app", `committed`)
	var seen []string
	r.proxy.Subscribe("/configs/app", func(e Entry) { seen = append(seen, string(e.Data)) })
	r.net.RunFor(2 * time.Second)

	// Canary-style temporary deploy.
	r.proxy.SetOverride("/configs/app", []byte(`canary`))
	if !r.proxy.Overridden("/configs/app") {
		t.Fatal("Overridden = false")
	}
	e := r.proxy.Read("/configs/app")
	if !e.OK || string(e.Data) != "canary" {
		t.Fatalf("Get during override = %q", e.Data)
	}
	if len(seen) == 0 || seen[len(seen)-1] != "canary" {
		t.Fatalf("subscriber did not see the override: %v", seen)
	}

	// Rollback re-feeds the committed value.
	r.proxy.ClearOverride("/configs/app")
	if r.proxy.Overridden("/configs/app") {
		t.Fatal("Overridden after clear")
	}
	e = r.proxy.Read("/configs/app")
	if string(e.Data) != "committed" {
		t.Fatalf("Get after rollback = %q", e.Data)
	}
	if seen[len(seen)-1] != "committed" {
		t.Fatalf("subscriber not restored: %v", seen)
	}
	// Clearing a non-existent override is a no-op.
	r.proxy.ClearOverride("/configs/never")
}

func TestCommittedUpdateDuringOverride(t *testing.T) {
	r := newRig(t, 12)
	r.write(t, "/configs/app", `v1`)
	r.proxy.Want("/configs/app")
	r.net.RunFor(2 * time.Second)
	r.proxy.SetOverride("/configs/app", []byte(`canary`))
	// A committed change lands while the override is active.
	r.write(t, "/configs/app", `v2`)
	e := r.proxy.Read("/configs/app")
	if string(e.Data) != "canary" {
		t.Fatalf("override should still win: %q", e.Data)
	}
	r.proxy.ClearOverride("/configs/app")
	e = r.proxy.Read("/configs/app")
	if string(e.Data) != "v2" {
		t.Fatalf("after clear, Get = %q, want the newest committed value", e.Data)
	}
}

func TestCachedPaths(t *testing.T) {
	r := newRig(t, 13)
	r.write(t, "/configs/a", `1`)
	r.write(t, "/configs/b", `2`)
	r.proxy.SetOverride("/configs/c", []byte(`3`))
	r.proxy.Want("/configs/b")
	r.proxy.Want("/configs/a")
	r.net.RunFor(2 * time.Second)
	got := r.proxy.CachedPaths() // sorted, whatever order the cells were made in
	want := []string{"/configs/a", "/configs/b", "/configs/c"}
	if !slices.Equal(got, want) {
		t.Errorf("CachedPaths = %v, want %v", got, want)
	}
}

func TestAccessors(t *testing.T) {
	r := newRig(t, 14)
	if r.proxy.ID() != "proxy-1" {
		t.Errorf("ID = %s", r.proxy.ID())
	}
	if r.proxy.Disk() == nil {
		t.Error("Disk = nil")
	}
	if r.proxy.Down() {
		t.Error("fresh proxy reports down")
	}
	r.proxy.Crash()
	if !r.proxy.Down() {
		t.Error("crashed proxy reports up")
	}
	r.proxy.Restart()
	if r.proxy.Down() {
		t.Error("restarted proxy reports down")
	}
}
