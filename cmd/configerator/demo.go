package main

import (
	"time"

	"configerator/internal/cluster"
	"configerator/internal/core"
	"configerator/internal/obs"
)

// newDemoWorld builds an instrumented demo fleet — two regions of two
// clusters, each cluster of the given number of servers, on the given seed,
// settled for 10 s so Zeus has a leader, fleet.Obs its registry — and a
// pipeline over it that canaries on phase1 servers, then phase2. The trace, status, sitevar and gk launch
// subcommands share newDemoWorld(2, 7, 2, 4).
func newDemoWorld(servers int, seed uint64, phase1, phase2 int) (*cluster.Fleet, *core.Pipeline) {
	cfg := cluster.SmallConfig(servers, seed)
	cfg.Obs = obs.New()
	fleet := cluster.New(cfg)
	fleet.Net.RunFor(10 * time.Second)
	return fleet, core.New(core.Options{Fleet: fleet, CanaryPhase1: phase1, CanaryPhase2: phase2})
}

// land submits a raw config through the pipeline, exits if it does not
// land, and returns the commit it landed as.
func land(p *core.Pipeline, title, path string, raw []byte) string {
	return landedAs(mustLand(p.Submit(&core.ChangeRequest{
		Author: "demo", Reviewer: "reviewer", Title: title,
		Raws: map[string][]byte{path: raw},
	})))
}

// mustLand exits unless the change landed, and otherwise returns its report.
func mustLand(rep *core.ChangeReport) *core.ChangeReport {
	if !rep.OK() {
		fatal("demo change failed at %s: %v", rep.FailedStage, rep.Err)
	}
	return rep
}

// landedAs is the commit a change landed as; the demo pipeline has one
// repository.
func landedAs(rep *core.ChangeReport) string {
	for _, h := range rep.Landed {
		return h.String()
	}
	return ""
}
