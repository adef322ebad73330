package riskadvisor

import (
	"strings"
	"testing"
	"time"

	"configerator/internal/vclock"
)

var t0 = vclock.Epoch

func day(n int) time.Time { return t0.Add(time.Duration(n) * 24 * time.Hour) }

func hasFlag(flags []Flag, kind FlagKind) bool {
	for _, f := range flags {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

func TestNewConfigNoFlags(t *testing.T) {
	a := New()
	if flags := a.Assess("fresh.json", "alice", 2, t0); flags != nil {
		t.Errorf("flags = %v", flags)
	}
}

func TestDormantChangeFlagged(t *testing.T) {
	a := New()
	a.Observe("old.json", "alice", 2, day(0))
	flags := a.Assess("old.json", "alice", 2, day(400))
	if !hasFlag(flags, FlagDormantChange) {
		t.Errorf("dormant change not flagged: %v", flags)
	}
	// A recently touched config is not dormant.
	a.Observe("old.json", "alice", 2, day(400))
	if flags := a.Assess("old.json", "alice", 2, day(410)); hasFlag(flags, FlagDormantChange) {
		t.Errorf("fresh config flagged dormant: %v", flags)
	}
}

func TestUnusualSizeFlagged(t *testing.T) {
	a := New()
	for i := 0; i < 10; i++ {
		a.Observe("cfg.json", "alice", 2, day(i))
	}
	flags := a.Assess("cfg.json", "alice", 200, day(11))
	if !hasFlag(flags, FlagUnusualSize) {
		t.Errorf("200-line change vs 2-line median not flagged: %v", flags)
	}
	// Normal-sized update is fine.
	if flags := a.Assess("cfg.json", "alice", 3, day(11)); hasFlag(flags, FlagUnusualSize) {
		t.Errorf("normal update flagged: %v", flags)
	}
	// Big changes to configs that always change big are normal.
	b := New()
	for i := 0; i < 10; i++ {
		b.Observe("model.json", "svc:publisher", 500, day(i))
	}
	if flags := b.Assess("model.json", "svc:publisher", 600, day(11)); hasFlag(flags, FlagUnusualSize) {
		t.Errorf("habitually-large config flagged: %v", flags)
	}
}

func TestHighlySharedFlagged(t *testing.T) {
	a := New()
	for i := 0; i < 25; i++ {
		a.Observe("shared.json", "eng"+string(rune('a'+i)), 2, day(i))
	}
	flags := a.Assess("shared.json", "enga", 2, day(30))
	if !hasFlag(flags, FlagHighlyShared) {
		t.Errorf("25-author config not flagged: %v", flags)
	}
	if a.Authors("shared.json") != 25 {
		t.Errorf("Authors = %d", a.Authors("shared.json"))
	}
}

// TestHighReachFlagged: a config with no author history at all is still
// flagged highly-shared when its static blast radius is large — the
// under-flagging gap the dataflow analysis closes.
func TestHighReachFlagged(t *testing.T) {
	a := New()
	a.SetReach("sitevars/new-but-popular.cinc", 40)
	flags := a.Assess("sitevars/new-but-popular.cinc", "mallory", 2, t0)
	if !hasFlag(flags, FlagHighlyShared) {
		t.Errorf("high-reach config with no history not flagged: %v", flags)
	}
	if !strings.Contains(flags[0].Detail, "statically reaches 40") {
		t.Errorf("detail should cite the static reach: %q", flags[0].Detail)
	}
	if a.Reach("sitevars/new-but-popular.cinc") != 40 {
		t.Errorf("Reach = %d", a.Reach("sitevars/new-but-popular.cinc"))
	}

	// Below threshold: still no flags (preserves the nil-for-new-config
	// contract).
	a.SetReach("sitevars/quiet.cinc", 3)
	if flags := a.Assess("sitevars/quiet.cinc", "mallory", 2, t0); flags != nil {
		t.Errorf("low-reach config flagged: %v", flags)
	}
}

// TestHighReachHabitualAuthorExempt: regular updaters of a high-reach
// config are not nagged, mirroring the author-history rule.
func TestHighReachHabitualAuthorExempt(t *testing.T) {
	a := New()
	a.SetReach("lib/core.cinc", 100)
	for i := 0; i < 5; i++ {
		a.Observe("lib/core.cinc", "owner", 2, day(i))
	}
	if flags := a.Assess("lib/core.cinc", "owner", 2, day(6)); hasFlag(flags, FlagHighlyShared) {
		t.Errorf("habitual author flagged on high-reach config: %v", flags)
	}
	// But a drive-by author on the same config is.
	flags := a.Assess("lib/core.cinc", "mallory", 2, day(6))
	if !hasFlag(flags, FlagHighlyShared) {
		t.Errorf("drive-by author on high-reach config not flagged: %v", flags)
	}
}

func TestNewAuthorFlagged(t *testing.T) {
	a := New()
	for i := 0; i < 5; i++ {
		a.Observe("cfg.json", "alice", 2, day(i))
	}
	flags := a.Assess("cfg.json", "mallory", 2, day(6))
	if !hasFlag(flags, FlagNewAuthor) {
		t.Errorf("first-time author not flagged: %v", flags)
	}
	if flags := a.Assess("cfg.json", "alice", 2, day(6)); hasFlag(flags, FlagNewAuthor) {
		t.Errorf("regular author flagged: %v", flags)
	}
	// Too little history: don't flag (everyone is new on a 1-update config).
	b := New()
	b.Observe("young.json", "alice", 2, day(0))
	if flags := b.Assess("young.json", "bob", 2, day(1)); hasFlag(flags, FlagNewAuthor) {
		t.Errorf("new author on young config flagged: %v", flags)
	}
}

func TestFlagString(t *testing.T) {
	f := Flag{Kind: FlagDormantChange, Path: "a.json", Detail: "untouched for 400 days"}
	s := f.String()
	if !strings.Contains(s, "dormant") || !strings.Contains(s, "a.json") {
		t.Errorf("String = %q", s)
	}
}

func TestKnown(t *testing.T) {
	a := New()
	if a.Known("x") {
		t.Error("unknown path reported known")
	}
	a.Observe("x", "a", 1, t0)
	if !a.Known("x") {
		t.Error("observed path not known")
	}
}

func TestLineSizeWindowBounded(t *testing.T) {
	a := New()
	for i := 0; i < 200; i++ {
		a.Observe("cfg.json", "alice", 2, day(i))
	}
	if n := len(a.paths["cfg.json"].lineSizes); n > 64 {
		t.Errorf("lineSizes window = %d, want <= 64", n)
	}
}
