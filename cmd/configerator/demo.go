package main

import (
	"time"

	"configerator/internal/cluster"
	"configerator/internal/core"
	"configerator/internal/obs"
)

// newDemoWorld builds the instrumented demo fleet the trace, status, sitevar
// and gk launch subcommands run on — two regions of two clusters with two
// servers each (seed 7), settled for 10 s so Zeus has a leader, fleet.Obs
// its registry — and a pipeline over it that canaries on 2 servers, then 4.
func newDemoWorld() (*cluster.Fleet, *core.Pipeline) {
	cfg := cluster.SmallConfig(2, 7)
	cfg.Obs = obs.New()
	fleet := cluster.New(cfg)
	fleet.Net.RunFor(10 * time.Second)
	return fleet, core.New(core.Options{Fleet: fleet, CanaryPhase1: 2, CanaryPhase2: 4})
}

// land submits a raw config through the pipeline, exits if it does not
// land, and returns the commit it landed as.
func land(p *core.Pipeline, title, path string, raw []byte) string {
	rep := p.Submit(&core.ChangeRequest{
		Author: "demo", Reviewer: "reviewer", Title: title,
		Raws: map[string][]byte{path: raw},
	})
	if !rep.OK() {
		fatal("demo change failed at %s: %v", rep.FailedStage, rep.Err)
	}
	return landedAs(rep)
}

// landedAs is the commit a change landed as; the demo pipeline has one
// repository.
func landedAs(rep *core.ChangeReport) string {
	for _, h := range rep.Landed {
		return h.String()
	}
	return ""
}
