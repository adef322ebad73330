package core

import (
	"strings"
	"testing"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/obs"
)

// TestStageNamesCanonical pins the ChangeReport.Timings contract: a full
// fleet run with canary records exactly the canonical stage-name set, and
// every run's keys are drawn from StageNames — no stray string literals.
func TestStageNamesCanonical(t *testing.T) {
	reg := obs.New()
	cfg := cluster.SmallConfig(3, 11) // 12 servers
	cfg.Obs = reg
	f := cluster.New(cfg)
	f.Net.RunFor(10 * time.Second)
	if f.Ensemble.Leader() == "" {
		t.Fatal("no leader")
	}
	p := New(Options{Fleet: f, CanaryPhase1: 2, CanaryPhase2: 4})
	if p.Obs != reg {
		t.Fatal("pipeline did not inherit the fleet registry")
	}
	f.SubscribeAll("/configs/feed/stages.json")
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "stage sweep",
		Raws: map[string][]byte{"feed/stages.json": []byte(`{"v":1}`)},
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}

	// Exactly the canonical set, in a full run.
	want := make(map[string]bool, len(StageNames))
	for _, n := range StageNames {
		want[n] = true
	}
	for k := range rep.Timings {
		if !want[k] {
			t.Errorf("Timings has non-canonical key %q", k)
		}
	}
	if len(rep.Timings) != len(StageNames) {
		t.Errorf("Timings keys = %v, want all of %v", rep.Timings, StageNames)
	}

	// Every stage fed its histogram.
	for _, n := range StageNames {
		if reg.Histogram("stage."+n).Count() == 0 {
			t.Errorf("stage.%s histogram empty", n)
		}
	}
	if got := reg.Counters().Get("pipeline.landed"); got != 1 {
		t.Errorf("pipeline.landed = %d, want 1", got)
	}

	// The commit's trace is resolvable by landed hash and renders the full
	// span tree: all five pipeline stages plus at least one zeus push hop
	// and a proxy materialize.
	var hash string
	for _, h := range rep.Landed {
		hash = h.String()
	}
	tr := reg.TraceByKey(hash)
	if tr == nil {
		t.Fatalf("no trace for landed hash %s", hash)
	}
	if reg.TraceByKey(hash[:6]) != tr {
		t.Error("trace not resolvable by hash prefix")
	}
	out := tr.Render()
	for _, span := range append(append([]string(nil), StageNames...),
		"zeus.commit", "observer ", "proxy ") {
		if !strings.Contains(out, span) {
			t.Errorf("trace missing span %q:\n%s", span, out)
		}
	}
}

// TestStageNamesSubsetStandalone: without a fleet (and with canary
// skipped) the recorded stages are the fleet-independent prefix.
func TestStageNamesSubsetStandalone(t *testing.T) {
	p := New(Options{Obs: obs.New()})
	seedSchema(t, p)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "standalone stages",
		Sources: map[string][]byte{
			"cache/stages.cconf": []byte(`import "scheduler/job.cinc"; export create_job("stages", 1);`),
		},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	want := map[string]bool{StageLint: true, StageCompile: true, StageReviewCI: true, StageCommit: true}
	if len(rep.Timings) != len(want) {
		t.Errorf("Timings = %v, want keys %v", rep.Timings, want)
	}
	for k := range rep.Timings {
		if !want[k] {
			t.Errorf("unexpected Timings key %q", k)
		}
	}
}
