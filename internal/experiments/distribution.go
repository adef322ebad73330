package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/confclient"
	"configerator/internal/core"
	"configerator/internal/stats"
	"configerator/internal/vcs"
)

// Fig14PropagationLatency reproduces Figure 14: the latency between
// committing a config change and the new config reaching the production
// servers, sampled around the clock so the load-driven daily pattern
// shows. The paper's ~14.5 s baseline decomposes as ~5 s git commit on a
// large repository + ~5 s git-tailer fetch + ~4.5 s Zeus tree propagation;
// we reproduce the first two with the calibrated cost model and a
// paper-scale synthetic file count, while tree propagation over the
// simulated fleet is sub-second (the paper's 4.5 s is the fanout to
// hundreds of thousands of subscribers; the simulation substitutes a
// smaller fleet — see DESIGN.md).
func Fig14PropagationLatency(opts Options) Result {
	r := Result{ID: "fig14", Title: "Commit-to-fleet propagation latency around the clock"}
	days := 3
	if opts.Quick {
		days = 1
	}
	fleet := cluster.New(cluster.SmallConfig(6, opts.Seed)) // 24 servers
	fleet.Net.RunFor(10 * time.Second)
	p := core.New(core.Options{Fleet: fleet})
	const path = "probe/latency.json"
	repo := p.Repos.Route(path)
	repo.SetSyntheticFileCount(800_000) // ≈5 s commits, like production
	p.Tailers[0].SetProcessingDelay(5 * time.Second)
	cost := p.Cost
	zpath := core.ZeusPath(path)
	fleet.SubscribeAll(zpath)

	// Every server records when it first sees each probe value.
	nServers := len(fleet.AllServers())
	arrived := make(map[int64]int)
	lastArrival := make(map[int64]time.Time)
	for _, s := range fleet.AllServers() {
		s.Client.Watch(context.Background(), zpath, func(cfg *confclient.Value) {
			id := cfg.Int("probe", -1)
			if id >= 0 {
				arrived[id]++
				if arrived[id] == nServers {
					lastArrival[id] = fleet.Net.Now()
				}
			}
		})
	}

	// Diurnal background commit load (other engineers and tools sharing
	// the strip) — this is what bends the curve at peak hours.
	loadAt := func(hour int) int {
		switch {
		case hour >= 10 && hour < 18:
			return 3
		case hour >= 8 && hour < 21:
			return 1
		default:
			return 0
		}
	}

	var series stats.Series
	series.Name = "propagation latency (s)"
	lat := stats.NewCDF()
	var b strings.Builder
	b.WriteString("hour\tlatency(s)\n")
	probe := int64(0)
	for hour := 0; hour < days*24; hour += 2 {
		probe++
		t0 := fleet.Net.Now()
		// The probe commit queues behind the hour's background commits on
		// the shared git repository; the repository head only advances —
		// and the tailer only sees it — once the git work completes.
		queued := loadAt(hour % 24)
		perCommit := cost.CommitCost(repo.FileCount(), repo.CommitCount())
		commitDelay := time.Duration(queued+1) * perCommit
		id := probe
		fleet.Net.After(commitDelay, func() {
			repo.CommitChanges("prober", "probe", fleet.Net.Now(),
				probeChange(path, id))
		})
		// Run until the fleet has it (bounded), then jump to the next
		// sampling point.
		for i := 0; i < 240 && lastArrival[probe].IsZero(); i++ {
			fleet.Net.RunFor(500 * time.Millisecond)
		}
		if lastArrival[probe].IsZero() {
			continue
		}
		l := lastArrival[probe].Sub(t0).Seconds()
		series.Add(float64(hour), l)
		lat.Add(l)
		fmt.Fprintf(&b, "%4d\t%6.2f\n", hour, l)
		fleet.Net.RunFor(2*time.Hour - fleet.Net.Now().Sub(t0))
	}
	b.WriteString(series.Sparkline(48) + "\n")
	r.Text = b.String()
	r.metric("baseline_latency_s", lat.Quantile(0.10), 14.5, true)
	r.metric("median_latency_s", lat.Quantile(0.50), 0, false)
	r.metric("peak_latency_s", lat.Max(), 0, false)
	r.metric("peak_over_baseline", lat.Max()/lat.Quantile(0.10), 40.0/14.5, true)
	return r
}

func probeChange(path string, id int64) vcs.Change {
	return vcs.Change{Path: path, Content: []byte(fmt.Sprintf(`{"probe":%d}`, id))}
}

// AblationP2PvsCentral compares the swarm against every server fetching
// straight from central storage (§3.5's motivation: a naive central fetch
// overloads the storage system). Central-only is the same agents handed
// metadata that names no tracker: the registry is then the only holder.
func AblationP2PvsCentral(opts Options) Result {
	r := Result{ID: "ablation-p2p", Title: "P2P swarm vs central-only fetch for large configs"}
	agents := 40
	sizeMB := 96
	if opts.Quick {
		agents = 20
		sizeMB = 48
	}
	p2p := runFleetDelivery(opts.Seed, agents, 4, sizeMB, 1, "tracker").quantile(1)
	central := runFleetDelivery(opts.Seed, agents, 4, sizeMB, 1, "").quantile(1)
	r.Text = fmt.Sprintf("%d servers, %d MB package:\n  P2P swarm slowest: %v\n  central-only slowest: %v\n  speedup: %.1fx\n",
		agents, sizeMB, p2p.Round(time.Millisecond), central.Round(time.Millisecond),
		float64(central)/float64(p2p))
	r.metric("p2p_seconds", p2p.Seconds(), 0, false)
	r.metric("central_seconds", central.Seconds(), 0, false)
	r.metric("speedup", float64(central)/float64(p2p), 0, false)
	return r
}

// AblationPushVsPull quantifies §3.4's push-vs-pull argument with the
// paper's own workload numbers: many servers need tens of thousands of
// configs, so a stateless pull must enumerate the full config list in
// every poll, and most polls return no new data.
func AblationPushVsPull(opts Options) Result {
	r := Result{ID: "ablation-push-pull", Title: "Push (watch) vs pull (poll) distribution cost"}
	const (
		servers          = 100_000 // paper scale
		configsPerServer = 20_000  // "many servers need tens of thousands of configs"
		pathBytes        = 40      // average config path length
		updatesPerHour   = 2_000   // fleet-relevant config updates per hour
		watchersPerPath  = 1_000   // servers subscribed to an average config
		pollSeconds      = 60.0
	)
	// Pull: every poll carries the full config list; almost all polls are
	// empty. Per hour:
	pollsPerHour := float64(servers) * 3600 / pollSeconds
	pullUpstreamBytes := pollsPerHour * configsPerServer * pathBytes
	pullUsefulFraction := float64(updatesPerHour) * watchersPerPath / pollsPerHour / configsPerServer
	pullMeanStaleness := pollSeconds / 2

	// Push: the observer tree forwards each update once per watcher; the
	// subscription list is sent once at startup, not per poll.
	pushMessagesPerHour := float64(updatesPerHour) * watchersPerPath
	pushMeanStaleness := 4.5 // the tree propagation time (§6.3)

	var b strings.Builder
	fmt.Fprintf(&b, "fleet=%d servers, %d configs/server, %d updates/hour\n",
		servers, configsPerServer, updatesPerHour)
	fmt.Fprintf(&b, "  pull(60s): %.2e polls/hour, %.1f TB/hour of config-list overhead, useful-poll ratio %.2e, mean staleness %.0fs\n",
		pollsPerHour, pullUpstreamBytes/1e12, pullUsefulFraction, pullMeanStaleness)
	fmt.Fprintf(&b, "  push:      %.2e update messages/hour, no poll overhead, mean staleness %.1fs\n",
		pushMessagesPerHour, pushMeanStaleness)
	fmt.Fprintf(&b, "  message ratio pull/push: %.0fx\n", pollsPerHour/pushMessagesPerHour)
	r.Text = b.String()
	r.metric("pull_polls_per_hour", pollsPerHour, 0, false)
	r.metric("push_messages_per_hour", pushMessagesPerHour, 0, false)
	r.metric("pull_over_push_messages", pollsPerHour/pushMessagesPerHour, 0, false)
	r.metric("pull_list_overhead_TB_per_hour", pullUpstreamBytes/1e12, 0, false)
	return r
}
