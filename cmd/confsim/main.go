// Command confsim runs the full Configerator stack end to end on a
// simulated fleet and narrates each stage of Figure 3: a schema change is
// authored, compiled, reviewed with CI results, canaried on live servers,
// landed through the strip, tailed into Zeus, and pushed to every proxy —
// then a bad change is injected and stopped by the canary.
//
// Usage:
//
//	go run ./cmd/confsim [-servers N] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/core"
)

func main() {
	servers := flag.Int("servers", 15, "servers per cluster (4 clusters)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()
	run(os.Stdout, *servers, *seed)
}

// run plays the demo onto w. Everything it prints is read off the simulation
// clock, so the same servers and seed give the same bytes.
func run(w io.Writer, servers int, seed uint64) {
	fmt.Fprintln(w, "== bootstrapping fleet ==")
	fleet := cluster.New(cluster.SmallConfig(servers, seed))
	fleet.Net.RunFor(10 * time.Second)
	fmt.Fprintf(w, "  %d servers across %v; zeus leader: %s\n",
		len(fleet.AllServers()), fleet.ClusterNames(), fleet.Ensemble.Leader())
	p := core.New(core.Options{Fleet: fleet, CanaryPhase2: len(fleet.AllServers()) / 2})

	const path = "feed/ranker.json"
	zpath := core.ZeusPath(path)
	fleet.SubscribeAll(zpath)

	fmt.Fprintln(w, "\n== change 1: author a config-as-code module ==")
	rep := p.Submit(&core.ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "introduce ranker weights",
		Sources: map[string][]byte{
			"feed/weights.cinc": []byte(`
				schema Ranker { 1: double w_likes = 0.5; 2: double w_recency = 0.5; }
				validator Ranker(r) {
					assert(r.w_likes + r.w_recency > 0.99 && r.w_likes + r.w_recency < 1.01,
						"weights must sum to 1");
				}
			`),
			"feed/ranker.cconf": []byte(`
				import "feed/weights.cinc";
				export Ranker{w_likes: 0.3, w_recency: 0.7};
			`),
		},
	})
	printReport(w, rep)
	fleet.Net.RunFor(20 * time.Second)
	sample := fleet.AllServers()[0]
	if cfg, err := sample.Client.Get(context.Background(), core.ZeusPath("feed/ranker.json")); err == nil {
		fmt.Fprintf(w, "  %s now sees w_recency=%v (version %d)\n",
			sample.ID, cfg.Float("w_recency", 0), cfg.Version)
	}

	fmt.Fprintln(w, "\n== change 2: validator rejects a bad edit ==")
	rep = p.Submit(&core.ChangeRequest{
		Author: "carol", Reviewer: "bob", Title: "oops, weights sum to 1.5",
		Sources: map[string][]byte{
			"feed/ranker.cconf": []byte(`
				import "feed/weights.cinc";
				export Ranker{w_likes: 0.8, w_recency: 0.7};
			`),
		},
	})
	printReport(w, rep)

	fmt.Fprintln(w, "\n== change 3: canary stops a config that spikes error rates ==")
	rep = p.Submit(&core.ChangeRequest{
		Author: "dave", Reviewer: "bob", Title: "risky knob flip",
		Raws: map[string][]byte{
			path: []byte(`{"w_likes":0.3,"_fault":{"type":"error","intensity":1.0}}`),
		},
	})
	printReport(w, rep)
	if rep.Canary != nil {
		for _, ph := range rep.Canary.Phases {
			fmt.Fprintf(w, "  canary %s: passed=%v %s\n", ph.Name, ph.Passed, ph.FailedCheck)
		}
	}

	fmt.Fprintln(w, "\n== change 4: automation through the Mutator ==")
	m := core.NewMutator(p, "traffic-shifter")
	rep = m.SetRaw("traffic/weights.json", []byte(`{"us-west":0.58,"us-east":0.42}`), core.SkipCanary())
	printReport(w, rep)

	fmt.Fprintf(w, "\nfinal state: %d commits, %d files in the repository; virtual clock %s\n",
		p.Repos.TotalCommits(), p.Repos.TotalFiles(), fleet.Net.Now().Format(time.RFC3339))
}

func printReport(w io.Writer, rep *core.ChangeReport) {
	if rep.OK() {
		fmt.Fprintf(w, "  LANDED diff %d: %d artifacts", rep.DiffID, len(rep.Compiled))
		for _, stage := range core.StageNames { // pipeline order, not map order
			if d, ok := rep.Timings[stage]; ok {
				fmt.Fprintf(w, "  %s=%s", stage, d.Round(time.Millisecond))
			}
		}
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "  BLOCKED at %s: %v\n", rep.FailedStage, rep.Err)
}
