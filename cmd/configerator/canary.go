package main

import (
	"context"
	"fmt"
	"time"

	"configerator/internal/core"
)

// canaryPhase is one canary phase of an attempt.
type canaryPhase struct {
	Name        string `json:"name"`
	Servers     int    `json:"servers"`
	Passed      bool   `json:"passed"`
	FailedCheck string `json:"failed_check,omitempty"`
}

// canaryAttempt is one change of the canary demo and what became of it.
type canaryAttempt struct {
	Story       string        `json:"story"`
	Title       string        `json:"title"`
	Override    bool          `json:"override_canary,omitempty"`
	Phases      []canaryPhase `json:"phases"`
	FailedStage string        `json:"blocked_at,omitempty"`
	Commit      string        `json:"commit,omitempty"`
	Revert      string        `json:"revert_commit,omitempty"`
	raw         string        // the config the change writes
}

// runCanary replays the §6.4 canary stories on a 100-server demo fleet that
// canaries on 4 servers, then 50: a config that spews logs fails the small
// phase; a load-amplifying config passes it and fails only at cluster
// scale; an engineer overrides a failing canary, the change lands and is
// reverted at once. The config is then retired — its path deleted through
// the pipeline — and one server reads it as deleted.
func runCanary(asJSON bool) {
	const path = "search/knobs.json"
	const healthy = `{"timeout_ms":200}`
	fleet, p := newDemoWorld(25, 9, 4, 50)
	fleet.SubscribeAll(core.ZeusPath(path))
	submit := func(title, raw string, skip, override bool) *core.ChangeReport {
		return p.Submit(&core.ChangeRequest{Author: "demo", Reviewer: "reviewer", Title: title,
			Raws: map[string][]byte{path: []byte(raw)}, SkipCanary: skip, OverrideCanary: override})
	}
	mustLand(submit("seed knobs", healthy, true, false))
	fleet.Net.RunFor(20 * time.Second)

	attempts := []*canaryAttempt{
		{Story: "schema-mismatch style bug (log spew)", Title: "enable new parser",
			raw: `{"timeout_ms":200,"new_parser":true,"_fault":{"type":"log_spew","intensity":1.0}}`},
		{Story: "load error invisible at small scale", Title: "aggressive prefetch",
			raw: `{"timeout_ms":200,"prefetch":"aggressive","_fault":{"type":"load","intensity":1.0}}`},
		{Story: "engineer overrides the canary", Title: "trivial and innocent change", Override: true,
			raw: `{"timeout_ms":250,"_fault":{"type":"crash","intensity":0.5}}`},
	}
	for _, at := range attempts {
		rep := submit(at.Title, at.raw, false, at.Override)
		if n := len(rep.Canaries); n > 0 {
			for _, ph := range rep.Canaries[n-1].Phases {
				at.Phases = append(at.Phases, canaryPhase{ph.Name, ph.TestServers, ph.Passed, ph.FailedCheck})
			}
		}
		if !rep.OK() {
			at.FailedStage = rep.FailedStage
			continue
		}
		// A landed bad config is reverted through the emergency path.
		at.Commit = landedAs(rep)
		at.Revert = landedAs(mustLand(submit(fmt.Sprintf("Revert %q", at.Title), healthy, true, false)))
	}
	committed := string(must(p.ReadArtifact(path)))

	retire := mustLand(p.Submit(&core.ChangeRequest{Author: "demo", Reviewer: "reviewer",
		Title: "retire search knobs", Deletes: []string{path}}))
	srv := fleet.AllServers()[0]
	_, err := srv.Client.Get(context.Background(), core.ZeusPath(path))
	if err == nil {
		fatal("%s still reads retired %s", srv.ID, path)
	}

	if asJSON {
		printJSON(map[string]interface{}{"path": path, "servers": len(fleet.AllServers()),
			"attempts": attempts, "committed": committed,
			"retired": map[string]interface{}{"commit": landedAs(retire), "server": srv.ID, "read": err.Error()}})
		return
	}
	fmt.Printf("canary demo on %d servers, config %s\n", len(fleet.AllServers()), path)
	for i, at := range attempts {
		fmt.Printf("\nattempt %d: %s — %q", i+1, at.Story, at.Title)
		if at.Override {
			fmt.Print(" (canary overridden)")
		}
		fmt.Println()
		for _, ph := range at.Phases {
			verdict := "PASS"
			if !ph.Passed {
				verdict = "FAIL — " + ph.FailedCheck
			}
			fmt.Printf("  canary %s (%d servers): %s\n", ph.Name, ph.Servers, verdict)
		}
		if at.FailedStage != "" {
			fmt.Printf("  -> BLOCKED at %s; every temporary deploy rolled back\n", at.FailedStage)
		} else {
			fmt.Printf("  -> LANDED as %s; reverted as %s\n", at.Commit, at.Revert)
		}
	}
	fmt.Printf("\ncommitted config: %s\n", committed)
	fmt.Printf("retired as %s; %s now reads: %v\n", landedAs(retire), srv.ID, err)
}
