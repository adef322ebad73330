package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"configerator/internal/ci"
	"configerator/internal/cluster"
)

// standalone returns a pipeline without a fleet (compile/review/ci/land).
func standalone(t *testing.T) *Pipeline {
	t.Helper()
	return New(Options{})
}

var jobSchema = []byte(`
	schema Job {
		1: string name;
		2: i32 priority = 1;
		3: bool enabled = true;
	}
	validator Job(c) {
		assert(c.priority >= 0 && c.priority <= 10, "priority out of range");
	}
	def create_job(name, prio) {
		return Job{name: name, priority: prio};
	}
`)

func seedSchema(t *testing.T, p *Pipeline) {
	t.Helper()
	rep := p.Submit(&ChangeRequest{
		Author: "scheduler-team", Reviewer: "bob", Title: "add job schema",
		Sources:    map[string][]byte{"scheduler/job.cinc": jobSchema},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("seed failed at %s: %v", rep.FailedStage, rep.Err)
	}
}

func TestCompileLandFlow(t *testing.T) {
	p := standalone(t)
	seedSchema(t, p)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "add cache job",
		Sources: map[string][]byte{
			"cache/job.cconf": []byte(`import "scheduler/job.cinc"; export create_job("cache", 3);`),
		},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	artifact, err := p.ReadArtifact("cache/job.json")
	if err != nil {
		t.Fatal(err)
	}
	want := `{"enabled":true,"name":"cache","priority":3}`
	if string(artifact) != want {
		t.Errorf("artifact = %s, want %s", artifact, want)
	}
	// Source is stored too (§3.1: both source and JSON in version control).
	if _, err := p.ReadArtifact("cache/job.cconf"); err != nil {
		t.Error("source not committed")
	}
	if rep.DiffID == 0 || rep.CIResult == nil || !rep.CIResult.Passed {
		t.Errorf("report = %+v", rep)
	}
}

func TestValidatorBlocksBadConfig(t *testing.T) {
	p := standalone(t)
	seedSchema(t, p)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "bad priority",
		Sources: map[string][]byte{
			"cache/job.cconf": []byte(`import "scheduler/job.cinc"; export create_job("cache", 99);`),
		},
		SkipCanary: true,
	})
	if rep.OK() || rep.FailedStage != "compile" {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.Err.Error(), "priority out of range") {
		t.Errorf("err = %v", rep.Err)
	}
	// Nothing landed.
	if _, err := p.ReadArtifact("cache/job.json"); err == nil {
		t.Error("artifact landed despite validator failure")
	}
}

func TestDependentRecompilation(t *testing.T) {
	p := standalone(t)
	// The paper's app/firewall example: changing the shared port must
	// recompile and re-land both configs in one change.
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "seed port configs",
		Sources: map[string][]byte{
			"lib/app_port.cinc": []byte(`let APP_PORT = 8089;`),
			"app.cconf":         []byte(`import "lib/app_port.cinc"; export {port: APP_PORT};`),
			"firewall.cconf":    []byte(`import "lib/app_port.cinc"; export {allow: APP_PORT};`),
		},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("seed failed: %v", rep.Err)
	}
	// Now change only the shared constant.
	rep = p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "move port",
		Sources: map[string][]byte{
			"lib/app_port.cinc": []byte(`let APP_PORT = 9000;`),
		},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("port change failed: %v", rep.Err)
	}
	if len(rep.Recompiled) != 2 {
		t.Errorf("Recompiled = %v, want app.cconf and firewall.cconf", rep.Recompiled)
	}
	app, _ := p.ReadArtifact("app.json")
	fw, _ := p.ReadArtifact("firewall.json")
	if string(app) != `{"port":9000}` || string(fw) != `{"allow":9000}` {
		t.Errorf("app=%s fw=%s", app, fw)
	}
}

func TestCIFailureRejectsDiff(t *testing.T) {
	p := standalone(t)
	p.Sandbox.Register(ci.Test{Name: "no-empty-name", Run: func(cs ci.ChangeSet) error {
		for path, data := range cs {
			if strings.Contains(string(data), `"name":""`) {
				return errors.New("empty name in " + path)
			}
		}
		return nil
	}})
	seedSchema(t, p)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "empty name",
		Sources: map[string][]byte{
			"cache/job.cconf": []byte(`import "scheduler/job.cinc"; export create_job("", 3);`),
		},
		SkipCanary: true,
	})
	if rep.OK() || rep.FailedStage != "ci" {
		t.Fatalf("report: stage=%s err=%v", rep.FailedStage, rep.Err)
	}
	d, _ := p.Review.Get(rep.DiffID)
	if d.Status.String() != "rejected" {
		t.Errorf("diff status = %v", d.Status)
	}
}

func TestSelfReviewBlocked(t *testing.T) {
	p := standalone(t)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "alice", Title: "self-approved",
		Raws:       map[string][]byte{"raw/x.json": []byte(`{}`)},
		SkipCanary: true,
	})
	if rep.OK() || rep.FailedStage != "review" {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRawConfigFlow(t *testing.T) {
	p := standalone(t)
	rep := p.Submit(&ChangeRequest{
		Author: "traffic-tool", Reviewer: "oncall", Title: "shift traffic",
		Raws:       map[string][]byte{"traffic/weights.json": []byte(`{"us-west":0.6,"us-east":0.4}`)},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("failed: %v", rep.Err)
	}
	got, err := p.ReadArtifact("traffic/weights.json")
	if err != nil || !strings.Contains(string(got), "us-west") {
		t.Errorf("raw artifact = %s, %v", got, err)
	}
}

func TestEmptyChangeRejected(t *testing.T) {
	p := standalone(t)
	rep := p.Submit(&ChangeRequest{Author: "a", Reviewer: "b"})
	if !errors.Is(rep.Err, ErrEmptyChange) {
		t.Fatalf("err = %v", rep.Err)
	}
}

func TestDeleteFlow(t *testing.T) {
	p := standalone(t)
	seedSchema(t, p)
	p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "add",
		Sources: map[string][]byte{
			"tmp/job.cconf": []byte(`import "scheduler/job.cinc"; export create_job("tmp", 1);`),
		},
		SkipCanary: true,
	})
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "remove",
		Deletes:    []string{"tmp/job.cconf"},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("delete failed: %v", rep.Err)
	}
	if _, err := p.ReadArtifact("tmp/job.cconf"); err == nil {
		t.Error("source still present")
	}
	if _, err := p.ReadArtifact("tmp/job.json"); err == nil {
		t.Error("artifact still present")
	}
}

// ---- full-stack tests with a fleet ----

func fleetPipeline(t *testing.T) (*Pipeline, *cluster.Fleet) {
	t.Helper()
	f := cluster.New(cluster.SmallConfig(15, 7)) // 60 servers
	f.Net.RunFor(10 * time.Second)
	if f.Ensemble.Leader() == "" {
		t.Fatal("no leader")
	}
	p := New(Options{Fleet: f, CanaryPhase2: 30})
	return p, f
}

func TestEndToEndDistribution(t *testing.T) {
	p, f := fleetPipeline(t)
	f.SubscribeAll("/configs/feed/ranker.json")
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "ranker weights",
		Raws:       map[string][]byte{"feed/ranker.json": []byte(`{"w1":0.3,"w2":0.7}`)},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	f.Net.RunFor(20 * time.Second)
	for _, s := range f.AllServers() {
		cfg, err := s.Client.Get(context.Background(), "/configs/feed/ranker.json")
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if string(cfg.Raw) != `{"w1":0.3,"w2":0.7}` {
			t.Fatalf("%s: raw config = %s", s.ID, cfg.Raw)
		}
	}
}

func TestCanaryBlocksBadChange(t *testing.T) {
	p, f := fleetPipeline(t)
	f.SubscribeAll("/configs/feed/knobs.json")
	// Seed a good version.
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "seed knobs",
		Raws:       map[string][]byte{"feed/knobs.json": []byte(`{"v":1}`)},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatal(rep.Err)
	}
	f.Net.RunFor(20 * time.Second)
	// A config that spikes error rates must be stopped by canary phase 1
	// and never land.
	rep = p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "bad knobs",
		Raws: map[string][]byte{"feed/knobs.json": []byte(`{"v":2,"_fault":{"type":"error","intensity":1.0}}`)},
	})
	if rep.OK() || rep.FailedStage != "canary" {
		t.Fatalf("report: stage=%s err=%v", rep.FailedStage, rep.Err)
	}
	if len(rep.Canaries) != 1 || rep.Canaries[0].Passed {
		t.Fatalf("canary reports = %+v", rep.Canaries)
	}
	// The committed config is still v1 everywhere, and no overrides
	// remain.
	got, _ := p.ReadArtifact("feed/knobs.json")
	if !strings.Contains(string(got), `"v":1`) {
		t.Errorf("repo contents = %s", got)
	}
	for _, s := range f.AllServers() {
		if s.Proxy.Overridden("/configs/feed/knobs.json") {
			t.Fatalf("%s still has a canary override", s.ID)
		}
	}
}

func TestCanaryPassesGoodChange(t *testing.T) {
	p, f := fleetPipeline(t)
	f.SubscribeAll("/configs/feed/good.json")
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "good change",
		Raws: map[string][]byte{"feed/good.json": []byte(`{"v":1}`)},
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	if len(rep.Canaries) != 1 || !rep.Canaries[0].Passed {
		t.Fatalf("canary reports = %+v", rep.Canaries)
	}
	// Canary dominates end-to-end time, ~10 min (§6.3).
	if rep.Timings["canary"] < 8*time.Minute || rep.Timings["canary"] > 15*time.Minute {
		t.Errorf("canary took %v, want ~10m", rep.Timings["canary"])
	}
}

func TestOverrideCanaryLandsAnyway(t *testing.T) {
	p, f := fleetPipeline(t)
	f.SubscribeAll("/configs/feed/risky.json")
	rep := p.Submit(&ChangeRequest{
		Author: "impatient", Reviewer: "bob", Title: "must be a false positive!",
		Raws: map[string][]byte{
			"feed/risky.json": []byte(`{"_fault":{"type":"crash","intensity":0.5}}`),
		},
		OverrideCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("override should land: %v", rep.Err)
	}
	if len(rep.Canaries) != 1 || rep.Canaries[0].Passed {
		t.Error("canary should have flagged the change")
	}
}

func TestCanariesPerArtifact(t *testing.T) {
	// With two artifacts in one change, the report keeps one canary report
	// per artifact.
	p, f := fleetPipeline(t)
	f.SubscribeAll("/configs/feed/one.json")
	f.SubscribeAll("/configs/feed/two.json")
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "two artifacts",
		Raws: map[string][]byte{
			"feed/one.json": []byte(`{"v":1}`),
			"feed/two.json": []byte(`{"v":2}`),
		},
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	if len(rep.Canaries) != 2 {
		t.Fatalf("Canaries = %d reports, want 2", len(rep.Canaries))
	}
	for i, cr := range rep.Canaries {
		if cr == nil || !cr.Passed {
			t.Errorf("Canaries[%d] = %+v, want passed", i, cr)
		}
	}
}

func TestPipelineEngineReuse(t *testing.T) {
	// The pipeline's engine persists across Submits: resubmitting the same
	// source compiles from the result cache.
	p, _ := fleetPipeline(t)
	src := `export {limit: 10};`
	for i := 0; i < 2; i++ {
		rep := p.Submit(&ChangeRequest{
			Author: "alice", Reviewer: "bob", Title: "compiled",
			Sources:    map[string][]byte{"limits/app.cconf": []byte(src)},
			SkipCanary: true,
		})
		if !rep.OK() {
			t.Fatalf("submit %d failed at %s: %v", i, rep.FailedStage, rep.Err)
		}
	}
	if hits := p.Engine.Counters().Get("result.hit"); hits == 0 {
		t.Error("second submit of identical source produced no result-cache hits")
	}
}
