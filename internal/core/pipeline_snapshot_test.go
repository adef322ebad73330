package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"configerator/internal/cdl"
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

// outOfBand returns a pipeline whose repository then took two commits that
// did not go through Submit: a direct strip submit adding svc/late.cconf, an
// importer of lib/shared.cinc, and a Repository.Land making
// sitevars/limits.cinc (which lib/shared.cinc imports) follow
// sitevars/extra.cinc. Nothing tells the pipeline about them.
func outOfBand(t *testing.T) *Pipeline {
	t.Helper()
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
	carryArtifacts(t, p, wc, "svc/late.cconf")
	if res := strip.Submit(wc.Diff("late importer"), p.Now()); res.Err != nil {
		t.Fatalf("direct strip submit: %v", res.Err)
	}
	wc = strip.Repo().Clone("sitevar-ui")
	wc.Write("sitevars/limits.cinc", []byte("import \"sitevars/extra.cinc\";\nlet RATE = EXTRA;\n"))
	if _, err := strip.Repo().Land(wc.Diff("limits follow extra"), p.Now()); err != nil {
		t.Fatalf("direct land: %v", err)
	}
	return p
}

// TestHeadSnapshotCatchesUpOutOfBandCommits: out-of-band commits are in the
// next change's radius, exactly as a pipeline built cold over the same head
// reports it; the pipeline finds them in the Merkle diff of the head tree.
func TestHeadSnapshotCatchesUpOutOfBandCommits(t *testing.T) {
	p := outOfBand(t)
	next := editChange("bump extra again", "sitevars/extra.cinc", "let EXTRA = 3;\n")
	cold := New(Options{Repos: p.Repos})
	_, _, want, err := cold.analyze(cold.viewOfRequest(next))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustLand(t, p, next)
	if !reflect.DeepEqual(rep.Radius, want) {
		t.Errorf("radius = %+v\ncold pipeline over the same head: %+v", rep.Radius, want)
	}
	if want := []string{"svc/app0.cconf", "svc/app1.cconf", "svc/app2.cconf", "svc/late.cconf", "svc/solo.cconf"}; !slices.Equal(rep.Radius.Artifacts, want) {
		t.Errorf("radius artifacts = %v, want %v", rep.Radius.Artifacts, want)
	}
}

// TestOutOfBandCommitsReachRecompileSet: the change that follows out-of-band
// commits recompiles every artifact in its radius — the dependency graph
// caught up with them too — so no artifact in the repository is left
// holding a value its sources no longer evaluate to.
func TestOutOfBandCommitsReachRecompileSet(t *testing.T) {
	p := outOfBand(t)
	rep := mustLand(t, p, editChange("bump extra again", "sitevars/extra.cinc", "let EXTRA = 3;\n"))
	var compiled []string
	for path := range rep.Compiled {
		compiled = append(compiled, path)
	}
	sort.Strings(compiled)
	if want := []string{"svc/app0.json", "svc/app1.json", "svc/app2.json", "svc/late.json", "svc/solo.json"}; !slices.Equal(compiled, want) {
		t.Errorf("compiled = %v, want %v", compiled, want)
	}
	if got, err := p.ReadArtifact("svc/app0.json"); err != nil || string(got) != `{"limit":3}` {
		t.Errorf("svc/app0.json at head = %s, %v; its source evaluates to {\"limit\":3}", got, err)
	}
}

// TestPipelineMatchesColdPipeline searches for a commit the pipeline fails to
// learn of: random walks mixing changes through Submit with commits that
// bypass it, and after every Submit the head snapshot's import graph answers
// as one built cold over the same head does, and every artifact in the
// change's radius holds what its source compiles to at head.
func TestPipelineMatchesColdPipeline(t *testing.T) {
	const libs, seeds, steps = 5, 30, 40
	lib := func(i int) string { return fmt.Sprintf("lib/l%d.cinc", i) }
	// source writes a file that imports the given libraries and puts the
	// sum of n and their values between open and close.
	source := func(open string, n int, imports []int, close string) []byte {
		var b strings.Builder
		for _, i := range imports {
			fmt.Fprintf(&b, "import %q;\n", lib(i))
		}
		fmt.Fprintf(&b, "%s%d", open, n)
		for _, i := range imports {
			fmt.Fprintf(&b, " + L%d", i)
		}
		b.WriteString(close)
		return []byte(b.String())
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// lower picks libraries numbered below i, so imports stay acyclic.
		lower := func(i int) []int {
			var out []int
			for j := 0; j < i; j++ {
				if rng.Intn(3) == 0 {
					out = append(out, j)
				}
			}
			return out
		}
		libSrc := func(i int, imports []int) []byte {
			return source(fmt.Sprintf("let L%d = ", i), rng.Intn(1000), imports, ";\n")
		}
		confSrc := func(imports []int) []byte {
			return source("export {v: ", rng.Intn(1000), imports, "};\n")
		}
		p := standalone(t)
		repo := p.Repos.Repos()[0]
		libImports := make([][]int, libs)
		confImports := map[string][]int{}
		var confs []string // live configs, in creation order
		newConf := func() (string, []byte) {
			path := fmt.Sprintf("svc/c%d.cconf", len(confImports))
			imports := append(lower(libs), rng.Intn(libs))
			sort.Ints(imports)
			imports = slices.Compact(imports)
			confImports[path] = imports
			confs = append(confs, path)
			return path, confSrc(imports)
		}
		seedReq := &ChangeRequest{Author: "alice", Reviewer: "bob", Title: "seed", SkipCanary: true, Sources: map[string][]byte{}}
		for i := 0; i < libs; i++ {
			libImports[i] = lower(i)
			seedReq.Sources[lib(i)] = libSrc(i, libImports[i])
		}
		for k := 0; k < 4; k++ {
			path, src := newConf()
			seedReq.Sources[path] = src
		}
		mustLand(t, p, seedReq)

		for step := 0; step < steps; step++ {
			var req *ChangeRequest
			switch kind := rng.Intn(5); {
			case kind <= 1: // Submit: edit a library or a config
				if i := rng.Intn(libs + len(confs)); i < libs {
					req = editChange("edit", lib(i), string(libSrc(i, libImports[i])))
				} else {
					path := confs[i-libs]
					req = editChange("edit", path, string(confSrc(confImports[path])))
				}
			case kind == 2 && len(confs) > 1: // Submit: delete a config
				i := rng.Intn(len(confs))
				req = &ChangeRequest{Author: "alice", Reviewer: "bob", Title: "delete", SkipCanary: true, Deletes: []string{confs[i]}}
				confs = slices.Delete(confs, i, i+1)
			case kind == 3: // direct strip submit: a new importer
				path, src := newConf()
				wc := repo.Clone("mallory")
				wc.Write(path, src)
				carryArtifacts(t, p, wc, path)
				if res := p.Strip(path).Submit(wc.Diff("new importer"), p.Now()); res.Err != nil {
					t.Fatalf("seed %d step %d: direct strip submit: %v", seed, step, res.Err)
				}
			default: // direct Land: rewrite a library's import list
				i := 1 + rng.Intn(libs-1)
				libImports[i] = lower(i)
				wc := repo.Clone("sitevar-ui")
				wc.Write(lib(i), libSrc(i, libImports[i]))
				if _, err := repo.Land(wc.Diff("rewire"), p.Now()); err != nil {
					t.Fatalf("seed %d step %d: direct land: %v", seed, step, err)
				}
			}
			if req == nil {
				continue
			}
			rep := p.Submit(req)
			if !rep.OK() {
				t.Fatalf("seed %d step %d: %s failed at %s: %v", seed, step, req.Title, rep.FailedStage, rep.Err)
			}
			p.catchUp()
			cold := New(Options{Repos: p.Repos})
			changed := append([]string(nil), req.Deletes...)
			for path := range req.Sources {
				changed = append(changed, path)
			}
			for _, x := range changed {
				got, want := p.head.Dependents(x), cold.head.Dependents(x)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Dependents(%s) = %v, a cold pipeline over the same head: %v", seed, step, x, got, want)
				}
			}
			compiler := cdl.NewEngine()
			for _, src := range rep.Radius.Artifacts {
				if slices.Contains(req.Deletes, src) {
					continue
				}
				res, err := compiler.Compile(p.Repos, src)
				if err != nil {
					t.Fatalf("seed %d step %d: %s does not compile at head: %v", seed, step, src, err)
				}
				if got, _ := p.ReadArtifact(ArtifactPath(src)); !bytes.Equal(got, res.JSON) {
					t.Fatalf("seed %d step %d: %s holds %s, its source compiles to %s", seed, step, ArtifactPath(src), got, res.JSON)
				}
			}
		}
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
	p.catchUp()
	head := p.head

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
	if p.catchUp(); p.head != head {
		t.Error("a rejected change replaced the head snapshot")
	}

	// A landed one moves it.
	mustLand(t, p, editChange("fine", "lib/shared.cinc", "let LIMIT = 11;\n"))
	if p.catchUp(); p.head == head {
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
	p.catchUp()
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
	p.catchUp()
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
