package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"configerator/internal/confclient"
	"configerator/internal/core"
	"configerator/internal/gatekeeper"
	"configerator/internal/vclock"
)

// runGK dispatches the gk subcommands.
func runGK(args []string, asJSON bool) {
	switch {
	case len(args) == 3 && args[0] == "explain":
		runGKExplain(args[1], args[2], asJSON)
	case len(args) == 1 && args[0] == "launch":
		runGKLaunch(asJSON)
	default:
		fatal("usage: configerator gk explain SPEC.json USER.json [-json] | configerator gk launch [-json]")
	}
}

// runGKExplain answers "why did this user pass this gate?": it compiles the
// project config, runs one check of the user through the program Check
// runs, and prints the trace. A laser() restraint has no store here and
// evaluates false.
func runGKExplain(specFile, userFile string, asJSON bool) {
	spec := must(gatekeeper.ParseProjectSpec(must(os.ReadFile(specFile))))
	project := must(gatekeeper.Compile(spec, gatekeeper.NewRegistry(nil)))
	user := must(gatekeeper.ParseUser(must(os.ReadFile(userFile))))
	ex := project.Explain(user)
	if asJSON {
		printJSON(ex)
		return
	}
	fmt.Print(ex.Text())
}

// launchStage is one landed change of gk launch, as the runtime bound on
// one server saw it.
type launchStage struct {
	Diff    int      `json:"diff"`
	Commit  string   `json:"commit"`
	Enabled int      `json:"enabled"`
	Notes   []string `json:"review_notes"`
	on      []bool   // per user: let through
}

// runGKLaunch plays the §4 launch on the demo fleet: the launch tool walks
// RolloutStages through the pipeline, each stage one reviewed, canaried
// change whose review carries the UI's human-readable notes (footnote 1). A
// runtime bound to the project's path on one server rebuilds its tree from
// every landed stage, and a synthetic user population is checked against
// it: each stage's pass share, and that a user once let through stays let
// through. The kill switch, one more change that skips the canary, ends it.
func runGKLaunch(asJSON bool) {
	const launchProject, launchRegion = "NewComposer", "us-west"
	fleet, p := newDemoWorld(2, 7, 2, 4)
	lt := gatekeeper.NewLaunchTool(p)
	path := lt.ZeusPath(launchProject)
	fleet.SubscribeAll(path)
	srv := fleet.AllServers()[0]
	rt := gatekeeper.NewRuntime(gatekeeper.NewRegistry(nil))
	rt.Bind(context.Background(), srv.Client, path)
	users := make([]*gatekeeper.User, 10_000) // 1% employees, a third in the launch region
	for i := range users {
		region := "eu"
		if i%3 == 0 {
			region = launchRegion
		}
		users[i] = &gatekeeper.User{ID: int64(i), Employee: i%100 == 0, Region: region, Platform: "www", Now: vclock.Epoch}
	}

	// Registered after Bind's watch, so the runtime has rebuilt its tree
	// when this runs. A canary override (version -1) or its rollback (an
	// older version) is not a landed change.
	var seen []*launchStage
	var last int64
	srv.Client.Watch(context.Background(), path, func(v *confclient.Value) {
		if v.Version <= last {
			return
		}
		last = v.Version
		st := &launchStage{on: make([]bool, len(users))}
		for i, u := range users {
			if st.on[i] = rt.Check(launchProject, u); st.on[i] {
				st.Enabled++
			}
		}
		seen = append(seen, st)
	})

	kill := &gatekeeper.ProjectSpec{Project: launchProject, Rules: []gatekeeper.RuleSpec{{
		Restraints: []gatekeeper.RestraintSpec{{Name: "always"}}, PassProbability: 0,
	}}}
	reports := lt.Launch(launchProject, launchRegion, "demo", "reviewer")
	reports = append(reports, lt.Update(kill, "demo", "reviewer", core.SkipCanary()))
	for i, rep := range reports {
		if !rep.OK() {
			fatal("launch change %d failed at %s: %v", i+1, rep.FailedStage, rep.Err)
		}
		if i >= len(seen) {
			fatal("the runtime on %s saw %d of %d launch changes", srv.ID, len(seen), len(reports))
		}
		st := seen[i]
		st.Diff, st.Commit = rep.DiffID, landedAs(rep)
		for _, c := range must(p.Review.Get(rep.DiffID)).Comments {
			if note, ok := strings.CutPrefix(c, "ui-tool: "); ok {
				st.Notes = append(st.Notes, note)
			}
		}
		if i == 0 || i == len(reports)-1 {
			continue // the kill switch narrows on purpose
		}
		for u, was := range seen[i-1].on {
			if was && !st.on[u] {
				fatal("user %d lost the feature at stage %d; a launch may only widen", u, i+1)
			}
		}
	}

	stages, live := seen[:len(seen)-1], lt.Current(launchProject).Encode()
	if asJSON {
		printJSON(map[string]interface{}{"project": launchProject, "zeus_path": path, "server": srv.ID,
			"users": len(users), "stages": stages, "kill_switch": seen[len(seen)-1], "live_spec": json.RawMessage(live)})
		return
	}
	fmt.Printf("launch %s; runtime on %s bound to %s; %d users\n", launchProject, srv.ID, path, len(users))
	for i, st := range seen {
		label := fmt.Sprint("stage ", i+1)
		if i == len(stages) {
			label = "kill switch"
		}
		fmt.Printf("%-11s  diff %d  commit %s  enabled %5d (%5.1f%%)\n",
			label, st.Diff, st.Commit, st.Enabled, 100*float64(st.Enabled)/float64(len(users)))
		for _, note := range st.Notes {
			fmt.Printf("    %s\n", note)
		}
	}
	fmt.Printf("exposure only widened across the %d stages; live spec %s\n", len(stages), live)
}
