package proxy

import (
	"slices"
	"testing"
	"time"

	"configerator/internal/simnet"
	"configerator/internal/zeus"
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
	r.net.Fail(r.proxy.ID())
	if !r.proxy.Down() {
		t.Error("crashed proxy reports up")
	}
	r.net.Recover(r.proxy.ID())
	if r.proxy.Down() {
		t.Error("restarted proxy reports down")
	}
}

// TestClearOverrideRefeedsWhatReadServes: a rollback re-feeds subscribers what
// Read serves after it, also when the cell holds nothing in memory — a proxy
// restarted mid-canary serves its on-disk copy, and a path never fetched
// serves nothing — so no subscriber is left on the canary bytes.
func TestClearOverrideRefeedsWhatReadServes(t *testing.T) {
	cases := map[string]func(r *rig) string{
		"restarted, then overridden": func(r *rig) string {
			const path = "/configs/app"
			r.write(t, path, `committed`)
			r.proxy.Want(path)
			r.net.RunFor(2 * time.Second)
			r.net.Fail(r.proxy.ID())
			r.net.Recover(r.proxy.ID()) // the refetch is in flight: the cell holds its disk copy
			return path
		},
		"never committed": func(r *rig) string { return "/configs/never" },
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 15)
			var last Entry
			path := setup(r)
			r.proxy.Subscribe(path, func(e Entry) { last = e })
			r.proxy.SetOverride(path, []byte(`canary`))
			r.proxy.ClearOverride(path)
			got := r.proxy.Read(path)
			if last.Exists != got.Exists || string(last.Data) != string(got.Data) {
				t.Fatalf("after the clear the subscriber holds (exists %v, %q), Read serves (exists %v, %q)",
					last.Exists, last.Data, got.Exists, got.Data)
			}
			if string(last.Data) == "canary" {
				t.Fatal("the subscriber still holds the canary bytes")
			}
		})
	}
}

// TestOnChangeHearsEveryNotify: the change hook hears a path at each apply of
// a new version (a delete included), SetOverride and ClearOverride, and not at
// a reconfirmed version or a crash.
func TestOnChangeHearsEveryNotify(t *testing.T) {
	const path = "/configs/app"
	r := newRig(t, 16)
	var heard []string
	r.proxy.OnChange(func(e Entry) { heard = append(heard, string(e.Data)) })
	r.write(t, path, `v1`)
	r.proxy.Want(path)
	r.net.RunFor(2 * time.Second)
	r.write(t, path, `v2`)
	r.proxy.SetOverride(path, []byte(`canary`))
	r.proxy.ClearOverride(path)
	r.proxy.ClearOverride(path) // no override: nothing to hear
	done := false
	r.net.After(0, func() {
		ctx := simnet.MakeContext(r.net, "tailer")
		r.client.Delete(&ctx, path, func(zeus.WriteResult) { done = true })
	})
	r.net.RunFor(5 * time.Second)
	if !done {
		t.Fatal("delete never committed")
	}
	epoch := r.proxy.Epoch()
	r.net.Fail(r.proxy.ID())
	if r.proxy.Epoch() == epoch {
		t.Error("Crash did not move the epoch")
	}
	if want := []string{"v1", "v2", "canary", "v2", ""}; !slices.Equal(heard, want) {
		t.Fatalf("the hook heard %q, want %q", heard, want)
	}
}
