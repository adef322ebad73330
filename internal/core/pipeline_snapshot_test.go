package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"configerator/internal/ci"
	"configerator/internal/vcs"
)

// editChange is a one-file source change.
func editChange(title, path, content string) *ChangeRequest {
	return &ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: title,
		Sources:    map[string][]byte{path: []byte(content)},
		SkipCanary: true,
	}
}

func mustLand(t *testing.T, p *Pipeline, req *ChangeRequest) *ChangeReport {
	t.Helper()
	rep := p.Submit(req)
	if !rep.OK() {
		t.Fatalf("%s failed at %s: %v", req.Title, rep.FailedStage, rep.Err)
	}
	return rep
}

// TestHeadSnapshotCatchesUpOutOfBandCommits: commits that reach a
// repository without going through Submit — a direct strip submit adding
// an importer of a library, a Repository.Land rewiring a sitevar template —
// are in the next change's radius, exactly as a pipeline built cold over
// the same head reports it. Nothing tells the pipeline about them; it finds
// them in the Merkle diff of the head tree.
func TestHeadSnapshotCatchesUpOutOfBandCommits(t *testing.T) {
	p := standalone(t)
	seedSharedLib(t, p, 3)
	mustLand(t, p, &ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "sitevar templates", SkipCanary: true,
		Sources: map[string][]byte{
			"sitevars/extra.cinc":  []byte("let EXTRA = 1;\n"),
			"sitevars/limits.cinc": []byte("let RATE = 5;\n"),
			"lib/shared.cinc":      []byte("import \"sitevars/limits.cinc\";\nlet LIMIT = RATE;\n"),
			"svc/solo.cconf":       []byte("import \"sitevars/extra.cinc\";\nexport {extra: EXTRA};\n"),
		},
	})
	rep := mustLand(t, p, editChange("bump extra", "sitevars/extra.cinc", "let EXTRA = 2;\n"))
	if want := []string{"svc/solo.cconf"}; !slices.Equal(rep.Radius.Artifacts, want) {
		t.Fatalf("radius before the out-of-band commits = %v, want %v", rep.Radius.Artifacts, want)
	}

	strip := p.Strip("svc/late.cconf")
	wc := strip.Repo().Clone("mallory")
	wc.Write("svc/late.cconf", []byte("import \"lib/shared.cinc\";\nexport {limit: LIMIT};\n"))
	if res := strip.Submit(wc.Diff("late importer"), p.Now()); res.Err != nil {
		t.Fatalf("direct strip submit: %v", res.Err)
	}
	wc = strip.Repo().Clone("sitevar-ui")
	wc.Write("sitevars/limits.cinc", []byte("import \"sitevars/extra.cinc\";\nlet RATE = EXTRA;\n"))
	if _, err := strip.Repo().Land(wc.Diff("limits follow extra"), p.Now()); err != nil {
		t.Fatalf("direct land: %v", err)
	}

	next := editChange("bump extra again", "sitevars/extra.cinc", "let EXTRA = 3;\n")
	cold := New(Options{Repos: p.Repos})
	_, want := cold.blastRadius(&overlayFS{repos: p.Repos, overlay: next.Sources}, []string{"sitevars/extra.cinc"})
	rep = mustLand(t, p, next)
	if !reflect.DeepEqual(rep.Radius, want) {
		t.Errorf("radius = %+v\ncold pipeline over the same head: %+v", rep.Radius, want)
	}
	if want := []string{"svc/app0.cconf", "svc/app1.cconf", "svc/app2.cconf", "svc/late.cconf", "svc/solo.cconf"}; !slices.Equal(rep.Radius.Artifacts, want) {
		t.Errorf("radius artifacts = %v, want %v", rep.Radius.Artifacts, want)
	}
}

// TestRejectedChangeLeavesHeadSnapshot: a change's view is derived from the
// head snapshot, never written into it — a change refused by CI or stopped
// by the canary leaves the snapshot the very same value.
func TestRejectedChangeLeavesHeadSnapshot(t *testing.T) {
	p, f := fleetPipeline(t)
	f.SubscribeAll("/configs/svc/app0.json")
	p.Sandbox.Register(ci.Test{Name: "limit-below-50", Run: func(cs ci.ChangeSet) error {
		if string(cs["svc/app0.json"]) == `{"limit":50}` {
			return errors.New("limit too high")
		}
		return nil
	}})
	seedSharedLib(t, p, 2)
	f.Net.RunFor(20 * time.Second)
	head := p.headSnapshot()

	rep := p.Submit(editChange("too high", "lib/shared.cinc", "let LIMIT = 50;\n"))
	if rep.FailedStage != "ci" {
		t.Fatalf("failed at %q (%v), want ci", rep.FailedStage, rep.Err)
	}
	bad := editChange("spikes errors", "svc/app0.cconf",
		"export {limit: 1, _fault: {type: \"error\", intensity: 1.0}};\n")
	bad.SkipCanary = false
	rep = p.Submit(bad)
	if rep.FailedStage != "canary" {
		t.Fatalf("failed at %q (%v), want canary", rep.FailedStage, rep.Err)
	}
	if got := p.headSnapshot(); got != head {
		t.Error("a rejected change replaced the head snapshot")
	}

	// A landed one moves it.
	mustLand(t, p, editChange("fine", "lib/shared.cinc", "let LIMIT = 11;\n"))
	if p.headSnapshot() == head {
		t.Error("the head snapshot did not follow a landed change")
	}
}

// TestHeadSnapshotCatchesUpPerRepository: each repository's head tree is
// stamped on its own, so a shard landed in one repository is caught up from
// that repository's diff alone.
func TestHeadSnapshotCatchesUpPerRepository(t *testing.T) {
	repos := vcs.NewRepoSet("configerator")
	feed, tao := repos.AddRepo("feed"), repos.AddRepo("tao")
	p := New(Options{Repos: repos})
	mustLand(t, p, &ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "cross-repo seed", SkipCanary: true,
		Sources: map[string][]byte{
			"feed/shards.cinc":   []byte("let SHARDS = 64;\n"),
			"feed/ranker.cconf":  []byte("import \"feed/shards.cinc\";\nexport {shards: SHARDS};\n"),
			"tao/topology.cconf": []byte("import \"feed/shards.cinc\";\nexport {shards: SHARDS, replicas: 3};\n"),
			"tao/cache.cconf":    []byte("export {ttl: 30};\n"),
		},
	})
	p.headSnapshot()
	feedStamp, taoStamp := p.headTrees[feed].Hash(), p.headTrees[tao].Hash()
	if feedStamp != feed.HeadTree().Hash() || taoStamp != tao.HeadTree().Hash() {
		t.Fatal("the stamps do not match the heads after a catch-up")
	}

	wc := tao.Clone("bot")
	wc.Write("tao/cache.cconf", []byte("export {ttl: 60};\n"))
	if _, err := tao.Land(wc.Diff("ttl"), p.Now()); err != nil {
		t.Fatal(err)
	}
	before := p.Dataflow.Counters().Snapshot()
	p.headSnapshot()
	after := p.Dataflow.Counters().Snapshot()
	if p.headTrees[feed].Hash() != feedStamp {
		t.Error("a commit in tao/ moved feed/'s stamp")
	}
	if p.headTrees[tao].Hash() != tao.HeadTree().Hash() || p.headTrees[tao].Hash() == taoStamp {
		t.Error("tao/'s stamp did not follow its head")
	}
	// One file differs, in tao/, and nothing imports it: one summary.
	if d := after["provenance.recompute"] + after["provenance.memo"] - before["provenance.recompute"] - before["provenance.memo"]; d != 1 {
		t.Errorf("the catch-up took %d summaries through the memo, want 1", d)
	}
	rep := mustLand(t, p, editChange("more shards", "feed/shards.cinc", "let SHARDS = 128;\n"))
	if want := []string{"feed/ranker.cconf", "tao/topology.cconf"}; !slices.Equal(rep.Radius.Artifacts, want) {
		t.Errorf("radius artifacts = %v, want %v", rep.Radius.Artifacts, want)
	}
}
