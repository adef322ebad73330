package main

import (
	"fmt"
	"time"

	"configerator/internal/core"
	"configerator/internal/monitor"
)

// runStatus stands up the instrumented demo fleet with the fleet-health
// plane attached, drives a short outage-and-recovery timeline through it,
// and prints the operator status view: per-path convergence, propagation
// quantiles, stragglers, and the SLO alerts the outage fired and cleared.
// With -json it prints the status's JSON form instead.
func runStatus(asJSON bool) {
	fleet, p := newDemoWorld(2, 7, 2, 4)
	mon := fleet.AttachMonitor(monitor.Config{
		SweepEvery: time.Second,
		SLOs: []*monitor.SLO{
			monitor.ConvergenceSLO(0.99, 2*time.Second),
			monitor.StalenessSLO(0.99, 15*time.Second),
		},
	})

	// Land a config and let the fleet converge under the monitor's eye.
	const path = "demo/status.json"
	fleet.SubscribeAll(core.ZeusPath(path))
	land := func(rev int) {
		land(p, fmt.Sprintf("status demo rev %d", rev), path, []byte(fmt.Sprintf(`{"rev":%d}`, rev)))
	}
	land(1)
	fleet.Net.RunFor(5 * time.Second)

	// A short scripted outage so the status view has a story to tell:
	// one cluster loses its observers, falls behind, then recovers.
	uw1 := fleet.Observers("uw1")
	for _, id := range uw1 {
		fleet.Net.Fail(id)
	}
	for rev := 2; rev <= 6; rev++ {
		land(rev)
		fleet.Net.RunFor(2 * time.Second)
	}
	for _, id := range uw1 {
		fleet.Net.Recover(id)
	}
	fleet.Net.RunFor(20 * time.Second)

	st := mon.Status()
	if asJSON {
		printJSON(st)
		return
	}
	fmt.Print(st.Text())
}
