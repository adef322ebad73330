package landingstrip

import (
	"strings"
	"testing"

	"configerator/internal/packagevessel"
	"configerator/internal/packagevessel/blob"
	"configerator/internal/vcs"
)

func promoRig(t *testing.T) (*packagevessel.Registry, *Strip) {
	t.Helper()
	reg := packagevessel.NewSwarm(1, 0, 1).Registry
	for v := int64(1); v <= 2; v++ {
		p := packagevessel.SyntheticPackage("ranker", v, 4<<20, packagevessel.DefaultChunkSize, 7)
		if _, err := reg.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	repo := vcs.NewRepository("shared")
	strip := New(repo, vcs.DefaultCostModel())
	strip.Gate = PromotionGate(reg)
	return reg, strip
}

func tagDiff(t *testing.T, repo *vcs.Repository, rec packagevessel.TagRecord) *vcs.Diff {
	t.Helper()
	data, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wc := repo.Clone("promoter")
	wc.Write(packagevessel.TagPath(rec.Name, rec.Tag), data)
	return wc.Diff("promote " + rec.Name + "/" + rec.Tag)
}

func TestPromotionGateLandsValidCanary(t *testing.T) {
	reg, strip := promoRig(t)
	rec, err := reg.Promote("ranker", "canary", 1)
	if err != nil {
		t.Fatal(err)
	}
	r := strip.Submit(tagDiff(t, strip.Repo(), rec), t0)
	if r.Err != nil {
		t.Fatalf("valid canary promotion refused: %v", r.Err)
	}
	// The landed record applies cleanly to the registry.
	if err := reg.ApplyTag(rec); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.CurrentTag("ranker", "canary"); !ok || v != 1 {
		t.Errorf("canary = %d, %v", v, ok)
	}
}

func TestPromotionGateRefusesUnpublished(t *testing.T) {
	_, strip := promoRig(t)
	rec := packagevessel.TagRecord{Name: "ranker", Tag: "canary", Version: 9,
		Manifest: blob.DigestOf([]byte("v9")).String()}
	r := strip.Submit(tagDiff(t, strip.Repo(), rec), t0)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "not published") {
		t.Fatalf("err = %v, want unpublished refusal", r.Err)
	}
	if strip.Landed != 0 || strip.Rejected != 1 {
		t.Errorf("landed=%d rejected=%d", strip.Landed, strip.Rejected)
	}
}

func TestPromotionGateRefusesProdWithoutCanary(t *testing.T) {
	reg, strip := promoRig(t)
	canary, err := reg.Promote("ranker", "canary", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := canary
	rec.Tag = "prod"
	r := strip.Submit(tagDiff(t, strip.Repo(), rec), t0)
	if r.Err == nil || !strings.Contains(r.Err.Error(), "canary") {
		t.Fatalf("err = %v, want staged-rollout refusal", r.Err)
	}
	// After canary lands and applies, prod goes through.
	if r := strip.Submit(tagDiff(t, strip.Repo(), canary), t0); r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := reg.ApplyTag(canary); err != nil {
		t.Fatal(err)
	}
	prod, err := reg.Promote("ranker", "prod", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := strip.Submit(tagDiff(t, strip.Repo(), prod), t0); r.Err != nil {
		t.Fatalf("prod after canary refused: %v", r.Err)
	}
}

func TestPromotionGateRefusesMalformed(t *testing.T) {
	reg, strip := promoRig(t)
	repo := strip.Repo()

	// Record/path mismatch.
	wc := repo.Clone("promoter")
	rec, err := reg.Promote("ranker", "canary", 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wc.Write(packagevessel.TagPath("other", "canary"), data)
	if r := strip.Submit(wc.Diff("mismatch"), t0); r.Err == nil {
		t.Error("path/record mismatch landed")
	}

	// A record naming no manifest digest binds no immutable content.
	rec.Manifest = ""
	if r := strip.Submit(tagDiff(t, repo, rec), t0); r.Err == nil {
		t.Error("tag record without a manifest digest landed")
	}

	// Undecodable record.
	wc = repo.Clone("promoter")
	wc.Write(packagevessel.TagPath("ranker", "canary"), []byte("{"))
	if r := strip.Submit(wc.Diff("garbage"), t0); r.Err == nil {
		t.Error("garbage tag record landed")
	}

	// Non-tag paths pass through the gate untouched.
	wc = repo.Clone("someone")
	wc.Write("feeds/ranking.json", []byte("{}"))
	if r := strip.Submit(wc.Diff("unrelated"), t0); r.Err != nil {
		t.Errorf("unrelated change refused: %v", r.Err)
	}
}
