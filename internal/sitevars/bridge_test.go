package sitevars

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"configerator/internal/cdl"
	"configerator/internal/cluster"
	"configerator/internal/core"
)

func newBridge(t *testing.T) (*Bridge, *cluster.Fleet) {
	t.Helper()
	fleet := cluster.New(cluster.SmallConfig(3, 21))
	fleet.Net.RunFor(10 * time.Second)
	p := core.New(core.Options{Fleet: fleet})
	return NewBridge(p), fleet
}

func TestBridgeSetDistributes(t *testing.T) {
	b, fleet := newBridge(t)
	fleet.SubscribeAll(b.ZeusPath("max_upload_mb"))
	res, err := b.Set("max_upload_mb", `{limit: 25, burst: 40}`, "alice", "bob", core.SkipCanary())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("warnings = %v", res.Warnings)
	}
	fleet.Net.RunFor(20 * time.Second)
	srv := fleet.AllServers()[0]
	cfg, err := srv.Client.Get(context.Background(), b.ZeusPath("max_upload_mb"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Int("limit", 0) != 25 {
		t.Errorf("limit = %d", cfg.Int("limit", 0))
	}
}

func TestBridgeWarningsSurfaceButDoNotBlock(t *testing.T) {
	b, _ := newBridge(t)
	if _, err := b.Set("flag", "true", "alice", "bob", core.SkipCanary()); err != nil {
		t.Fatal(err)
	}
	res, err := b.Set("flag", `"yes"`, "alice", "bob", core.SkipCanary())
	if err != nil {
		t.Fatal(err) // warning, not an error
	}
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[0], "deviates") {
		t.Errorf("warnings = %v", res.Warnings)
	}
	if !res.Report.OK() {
		t.Error("warned update should still land")
	}
}

func TestBridgeCheckerBlocks(t *testing.T) {
	b, _ := newBridge(t)
	b.Store().SetChecker("quota", func(v cdl.Value) error {
		if n, ok := v.(cdl.Int); !ok || n < 0 {
			return errors.New("quota must be nonnegative int")
		}
		return nil
	})
	if _, err := b.Set("quota", "-3", "alice", "bob", core.SkipCanary()); err == nil {
		t.Fatal("checker should block the update")
	}
	// Nothing landed.
	if _, err := b.pipeline.ReadArtifact(b.ArtifactPath("quota")); err == nil {
		t.Fatal("blocked sitevar landed anyway")
	}
}

func TestBridgeSyntaxErrorBlocks(t *testing.T) {
	b, _ := newBridge(t)
	if _, err := b.Set("bad", "1 +", "alice", "bob"); err == nil {
		t.Fatal("syntax error should block")
	}
}

// TestBridgeRefusedChangeTeachesNothing: a change the pipeline refuses
// leaves the sitevar's value, update count and inferred types as they were,
// so the next deviating update still warns.
func TestBridgeRefusedChangeTeachesNothing(t *testing.T) {
	b, _ := newBridge(t)
	if _, err := b.Set("quota", `{limit: 5}`, "alice", "bob", core.SkipCanary()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Set("quota", `{limit: "five"}`, "alice", "alice", core.SkipCanary()); err == nil {
		t.Fatal("self-reviewed change landed")
	}
	sv, _ := b.Store().Get("quota")
	if sv.Updates != 1 || string(sv.JSON) != `{"limit":5}` || sv.FieldType("limit") != TypeInt {
		t.Errorf("refused change recorded: updates %d, JSON %s, limit %v", sv.Updates, sv.JSON, sv.FieldType("limit"))
	}
	res, err := b.Set("quota", `{limit: "six"}`, "alice", "bob", core.SkipCanary())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], `"limit"`) {
		t.Errorf("string limit after an int one: warnings = %v", res.Warnings)
	}
}

// TestBridgeTitleKeepsUTF8: the review title truncates a long expression on
// a rune boundary.
func TestBridgeTitleKeepsUTF8(t *testing.T) {
	b, _ := newBridge(t)
	// "é" is two bytes; a 57-byte cut lands inside the first one.
	expr := `"` + strings.Repeat("a", 55) + strings.Repeat("é", 10) + `"`
	res, err := b.Set("motd", expr, "alice", "bob", core.SkipCanary())
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.pipeline.Review.Get(res.Report.DiffID)
	if err != nil {
		t.Fatal(err)
	}
	if !utf8.ValidString(d.Title) || !strings.HasSuffix(d.Title, "...") {
		t.Errorf("title %q", d.Title)
	}
}

func TestBridgeSelfReviewBlocked(t *testing.T) {
	b, _ := newBridge(t)
	res, err := b.Set("x", "1", "alice", "alice", core.SkipCanary())
	if err == nil {
		t.Fatal("self-review should block")
	}
	if res.Report.FailedStage != "review" {
		t.Errorf("failed at %s", res.Report.FailedStage)
	}
}
