package main

import (
	"fmt"

	"configerator/internal/core"
	"configerator/internal/obs"
)

// runTrace drives one canaried change through an instrumented demo fleet
// and prints its commit-scoped span tree: the five pipeline stages plus
// the Zeus push-tree hops (leader commit → observer apply → proxy
// materialize) stitched in by path/zxid. With a COMMIT argument it
// resolves that trace (landed-hash prefixes work) instead of the demo
// change's own. With -json the span tree is emitted in the registry's
// deterministic JSON encoding instead of the text rendering.
func runTrace(args []string, asJSON bool) {
	if len(args) > 1 {
		fatal("trace takes at most one COMMIT argument")
	}
	fleet, p := newDemoWorld(2, 7, 2, 4)
	reg := fleet.Obs
	const path = "demo/trace.json"
	fleet.SubscribeAll(core.ZeusPath(path))
	key := land(p, "trace demo", path, []byte(`{"demo":true}`))
	if len(args) == 1 {
		key = args[0]
	}
	tr := reg.TraceByKey(key)
	if tr == nil {
		fmt.Println("known trace keys:")
		for _, t := range reg.Traces() {
			fmt.Printf("  %s  (aliases %v)\n", t.Key, t.Aliases)
		}
		fatal("no trace for %q", key)
	}

	if asJSON {
		fmt.Println(tr.JSON())
		return
	}
	fmt.Print(tr.Render())
	fmt.Println("\npush-tree latency across the demo fleet:")
	for _, name := range []string{
		obs.HistHopLeaderObserver, obs.HistHopObserverProxy,
		obs.HistCommitToProxy, obs.HistCommitToRead,
	} {
		if h := reg.Histogram(name); h.Count() > 0 {
			fmt.Printf("  %-24s %s\n", name, h.Summary())
		}
	}
}
