package core

import (
	"errors"
	"strings"
	"testing"

	"configerator/internal/cdl/analysis"
	"configerator/internal/vcs"
)

// deadBranchBad is a config the compiler accepts (the bad branch never
// evaluates) but static analysis rejects: only configlint catches the
// undefined reference.
var deadBranchBad = []byte(`
	let enabled = false;
	if (enabled) {
		let x = missing_name;
	}
	export {on: enabled};
`)

// TestPipelineLintBlocksStage1: an Error diagnostic fails the change in
// stage 1, before compile, review, or landing.
func TestPipelineLintBlocksStage1(t *testing.T) {
	p := standalone(t)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "sneaky dead branch",
		Sources:    map[string][]byte{"svc/bad.cconf": deadBranchBad},
		SkipCanary: true,
	})
	if rep.OK() {
		t.Fatal("change with lint error landed")
	}
	if rep.FailedStage != "lint" {
		t.Fatalf("FailedStage = %q, want lint (err: %v)", rep.FailedStage, rep.Err)
	}
	if !errors.Is(rep.Err, ErrLintFailed) {
		t.Fatalf("err = %v, want ErrLintFailed", rep.Err)
	}
	if !analysis.HasErrors(rep.Lint) {
		t.Fatal("report should carry the Error diagnostics")
	}
	if !strings.Contains(rep.Err.Error(), "missing_name") {
		t.Fatalf("error should name the reference: %v", rep.Err)
	}
	if len(rep.Compiled) != 0 || len(rep.Landed) != 0 {
		t.Fatal("nothing should compile or land after a lint failure")
	}
	if _, err := p.ReadArtifact("svc/bad.json"); err == nil {
		t.Fatal("artifact exists for a blocked change")
	}
}

// TestPipelineLintCoversDependents: editing a .cinc lints every importer,
// so a library change that breaks a dependent is blocked even though the
// library itself is clean.
func TestPipelineLintCoversDependents(t *testing.T) {
	p := standalone(t)
	seedSchema(t, p)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "add consumer",
		Sources: map[string][]byte{
			"cache/job.cconf": []byte(`import "scheduler/job.cinc"; export create_job("cache", 3);`),
		},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("consumer failed at %s: %v", rep.FailedStage, rep.Err)
	}
	// Rename create_job out from under the dependent. The library alone
	// lints clean; the dependent's undefined reference must block.
	rep = p.Submit(&ChangeRequest{
		Author: "mallory", Reviewer: "bob", Title: "rename helper",
		Sources: map[string][]byte{
			"scheduler/job.cinc": []byte(`
				schema Job {
					1: string name;
					2: i32 priority = 1;
					3: bool enabled = true;
				}
				validator Job(c) { assert(c.priority >= 0, "priority"); }
				def make_job(name, prio) {
					return Job{name: name, priority: prio};
				}
			`),
		},
		SkipCanary: true,
	})
	if rep.FailedStage != "lint" {
		t.Fatalf("FailedStage = %q, want lint (err: %v)", rep.FailedStage, rep.Err)
	}
	found := false
	for _, d := range rep.Lint {
		if d.Severity == analysis.Error && d.Pos.File == "cache/job.cconf" {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostics should point at the dependent, got: %v", rep.Lint)
	}
}

// TestLintReachesUnrootedImporters: the lint set is every transitive
// importer in the repository, not only those a config reaches, so editing
// a library lints a library that imports it even when no .cconf imports
// either.
func TestLintReachesUnrootedImporters(t *testing.T) {
	p := standalone(t)
	mustLand(t, p, &ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "two libraries", SkipCanary: true,
		Sources: map[string][]byte{
			"lib/a.cinc": []byte("let A = 1;\n"),
			"lib/b.cinc": []byte("import \"lib/a.cinc\";\nlet B = A + 1;\n"),
		},
	})
	rep := p.Submit(editChange("rename A", "lib/a.cinc", "let A2 = 1;\n"))
	if rep.FailedStage != "lint" {
		t.Fatalf("FailedStage = %q, want lint (err: %v)", rep.FailedStage, rep.Err)
	}
	found := false
	for _, d := range rep.Lint {
		found = found || d.Severity == analysis.Error && d.Pos.File == "lib/b.cinc"
	}
	if !found {
		t.Fatalf("no error in the unrooted importer lib/b.cinc: %v", rep.Lint)
	}
}

// TestPipelineLintWarningsRideAlong: warnings appear in the report but do
// not block the change.
func TestPipelineLintWarningsRideAlong(t *testing.T) {
	p := standalone(t)
	// A plain constants library: no validators or exports, so importing
	// it without referencing a name really is dead weight.
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "unused import",
		Sources: map[string][]byte{
			"lib/consts.cinc": []byte(`let LIMIT = 10;`),
			"svc/app.cconf":   []byte(`import "lib/consts.cinc"; export {a: 1};`),
		},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	warned := false
	for _, d := range rep.Lint {
		if d.Analyzer == "unused-import" && d.Severity == analysis.Warn {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("report should carry the unused-import warning, got: %v", rep.Lint)
	}
}

// TestStripGateBlocksDirectSubmit: a diff pushed straight at the landing
// strip — bypassing stages 1–3 — is still refused when its affected set
// lints dirty.
func TestStripGateBlocksDirectSubmit(t *testing.T) {
	p := standalone(t)
	strip := p.Strip("svc/bad.cconf")
	if strip == nil {
		t.Fatal("no strip for path")
	}
	wc := strip.Repo().Clone("mallory")
	wc.Write("svc/bad.cconf", deadBranchBad)
	res := strip.Submit(wc.Diff("backdoor"), p.Now())
	if res.Err == nil {
		t.Fatal("strip landed a diff whose affected set lints dirty")
	}
	if !errors.Is(res.Err, ErrLintFailed) {
		t.Fatalf("err = %v, want ErrLintFailed", res.Err)
	}
	if strip.Repo().CommitCount() != 0 {
		t.Error("refused diff reached the repository")
	}

	// The same backdoor with a clean diff lands.
	wc2 := strip.Repo().Clone("carol")
	wc2.Write("svc/ok.cconf", []byte(`export {ok: true};`))
	carryArtifacts(t, p, wc2, "svc/ok.cconf")
	if res := strip.Submit(wc2.Diff("clean"), p.Now()); res.Err != nil {
		t.Fatalf("clean direct diff refused: %v", res.Err)
	}
}

// TestStripGateCatchesCrossFileBreakage: a direct diff that edits a
// library refuses to land when an existing importer in the repository
// would break — the gate lints the post-diff affected set via the
// dependency graph.
func TestStripGateCatchesCrossFileBreakage(t *testing.T) {
	p := standalone(t)
	seedSchema(t, p)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "add consumer",
		Sources: map[string][]byte{
			"cache/job.cconf": []byte(`import "scheduler/job.cinc"; export create_job("cache", 3);`),
		},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("consumer failed at %s: %v", rep.FailedStage, rep.Err)
	}
	strip := p.Strip("scheduler/job.cinc")
	wc := strip.Repo().Clone("mallory")
	wc.Write("scheduler/job.cinc", []byte(`let only = 1;`))
	res := strip.Submit(wc.Diff("gut the library"), p.Now())
	if !errors.Is(res.Err, ErrLintFailed) {
		t.Fatalf("err = %v, want ErrLintFailed (dependent breaks)", res.Err)
	}
	var _ vcs.Hash = res.Hash // zero: nothing landed
}
