package experiments

import (
	"fmt"
	"sort"
	"strings"

	"configerator/internal/riskadvisor"
	"configerator/internal/stats"
	"configerator/internal/workload"
)

// ExtensionRiskAdvisor evaluates the §8 future-work feature on the
// paper-calibrated workload: replay the generated repository history
// through the risk advisor and measure how often each signal fires. The
// paper motivates the feature with its own data ("old configs do get
// updated … flag high-risk updates based on the past history, e.g., a
// dormant config is suddenly changed"), so the interesting readout is the
// advisory volume: flags must be common enough to matter and rare enough
// to stay readable in review.
func ExtensionRiskAdvisor(opts Options) Result {
	r := Result{ID: "ext-riskadvisor", Title: "Risk-advisor flag rates over the calibrated history"}
	h := history(opts)
	adv := riskadvisor.New()

	// Replay all updates in global time order.
	type event struct {
		cfg *workload.Config
		u   workload.Update
	}
	var events []event
	for _, c := range h.Configs {
		for _, u := range c.Updates {
			events = append(events, event{cfg: c, u: u})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].u.Time.Before(events[j].u.Time) })

	pathOf := func(c *workload.Config) string { return fmt.Sprintf("cfg/%06d.json", c.ID) }
	flagCounts := map[riskadvisor.FlagKind]int{}
	flaggedUpdates := 0
	for _, ev := range events {
		flags := adv.Assess(pathOf(ev.cfg), ev.u.Author, ev.u.LineChanges, ev.u.Time)
		if len(flags) > 0 {
			flaggedUpdates++
		}
		for _, f := range flags {
			flagCounts[f.Kind]++
		}
		adv.Observe(pathOf(ev.cfg), ev.u.Author, ev.u.LineChanges, ev.u.Time)
	}
	total := len(events)

	// Cross-validate the dormancy signal against an independent analytic
	// count over the same history: updates whose gap since the config's
	// previous update meets the threshold.
	expectedDormant := 0
	threshold := riskadvisor.DormancyAge
	for _, c := range h.Configs {
		for i := 1; i < len(c.Updates); i++ {
			if c.Updates[i].Time.Sub(c.Updates[i-1].Time) >= threshold {
				expectedDormant++
			}
		}
	}

	var b strings.Builder
	tab := stats.NewTable("Flag volume over the replayed history:", "signal", "fired", "per-1000 updates")
	for _, kind := range []riskadvisor.FlagKind{
		riskadvisor.FlagDormantChange, riskadvisor.FlagUnusualSize,
		riskadvisor.FlagHighlyShared, riskadvisor.FlagNewAuthor,
	} {
		tab.AddRawRow(string(kind), flagCounts[kind],
			fmt.Sprintf("%.1f", 1000*float64(flagCounts[kind])/float64(total)))
	}
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "\n%d updates replayed; %.1f%% carried at least one advisory flag\n",
		total, 100*float64(flaggedUpdates)/float64(total))
	fmt.Fprintf(&b, "dormancy cross-check: advisor flagged %d vs %d analytically dormant updates\n",
		flagCounts[riskadvisor.FlagDormantChange], expectedDormant)
	r.Text = b.String()
	r.metric("flagged_update_fraction", float64(flaggedUpdates)/float64(total), 0, false)
	r.metric("dormant_flags_per_1000", 1000*float64(flagCounts[riskadvisor.FlagDormantChange])/float64(total), 0, false)
	r.metric("unusual_size_flags_per_1000", 1000*float64(flagCounts[riskadvisor.FlagUnusualSize])/float64(total), 0, false)
	r.metric("highly_shared_flags_per_1000", 1000*float64(flagCounts[riskadvisor.FlagHighlyShared])/float64(total), 0, false)
	r.metric("new_author_flags_per_1000", 1000*float64(flagCounts[riskadvisor.FlagNewAuthor])/float64(total), 0, false)
	ratio := 0.0
	if expectedDormant > 0 {
		ratio = float64(flagCounts[riskadvisor.FlagDormantChange]) / float64(expectedDormant)
	}
	r.metric("dormant_vs_analytic_ratio", ratio, 1.0, true)
	return r
}
