// Package experiments regenerates every table and figure from the paper's
// evaluation (Section 6), the design-choice ablations listed in DESIGN.md,
// and four fault/scale scenarios with no counterpart in the benchmark
// (availability, monitor, scale, vessel). Each experiment returns a Result
// holding the rendered rows/series (the same shape the paper reports) and
// the key scalar metrics that the package's tests and EXPERIMENTS.md
// compare against the published values.
//
// This package is the paper-vs-measured record, not the performance
// record: speed and memory are measured by `go run ./bench` against
// BENCHMARK.json. The scenarios here run on the simulated clock, so their
// tests assert values and counts, not wall time.
//
// The root bench harness (bench_test.go) and cmd/benchreport both call
// into this package, so the benchmarks and the written report can never
// drift apart.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the paper reference, e.g. "fig7", "table2", "sec6.4".
	ID string
	// Title describes the experiment.
	Title string
	// Text is the rendered rows/series.
	Text string
	// Metrics are the headline numbers (paper value vs measured).
	Metrics map[string]float64
	// PaperValues are the corresponding published numbers, keyed like
	// Metrics, where the paper states one.
	PaperValues map[string]float64
}

// metric registers a measured value with its paper counterpart (NaN-free;
// use ok=false when the paper gives no number).
func (r *Result) metric(name string, measured float64, paper float64, hasPaper bool) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = measured
	if hasPaper {
		if r.PaperValues == nil {
			r.PaperValues = make(map[string]float64)
		}
		r.PaperValues[name] = paper
	}
}

// Options scales the experiments; defaults are laptop-friendly.
type Options struct {
	Seed uint64
	// Quick shrinks the slow simulations (used by `go test`).
	Quick bool
}

// Experiment pairs an experiment's Result.ID with its constructor
// (TestAllRuns pins the two in sync).
type Experiment struct {
	ID  string
	Run func(Options) Result
}

// Catalog lists every experiment in paper order.
func Catalog() []Experiment {
	return []Experiment{
		{"fig7", Fig7ConfigGrowth},
		{"fig8", Fig8ConfigSizes},
		{"fig9", Fig9Freshness},
		{"fig10", Fig10AgeAtUpdate},
		{"table1", Table1UpdatesPerConfig},
		{"table2", Table2LineChanges},
		{"table3", Table3CoAuthors},
		{"fig11", Fig11DailyCommits},
		{"fig12", Fig12HourlyCommits},
		{"fig13", Fig13CommitThroughput},
		{"fig14", Fig14PropagationLatency},
		{"fig15", Fig15GatekeeperChecks},
		{"sec6.4", Sec64ConfigErrors},
		{"vessel", Vessel},
		{"ablation-push-pull", AblationPushVsPull},
		{"ablation-landing-strip", AblationLandingStrip},
		{"ablation-multirepo", AblationMultiRepo},
		{"ablation-p2p", AblationP2PvsCentral},
		{"ablation-gk-optimizer", AblationGatekeeperOptimizer},
		{"ablation-mobile-delta", AblationMobileDelta},
		{"ext-riskadvisor", ExtensionRiskAdvisor},
		{"configlint", Lint},
		{"availability", Availability},
		{"monitor", Monitor},
		{"scale", Scale},
	}
}

// All runs every experiment in paper order.
func All(opts Options) []Result {
	entries := Catalog()
	out := make([]Result, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Run(opts))
	}
	return out
}

// Run executes only the experiments whose IDs are listed, in catalog
// order; an empty list means all. Unknown IDs are an error, reported
// (all of them, sorted) before anything runs.
func Run(opts Options, ids []string) ([]Result, error) {
	if len(ids) == 0 {
		return All(opts), nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var selected []Experiment
	for _, e := range Catalog() {
		if want[e.ID] {
			selected = append(selected, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, strconv.Quote(id))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("experiments: unknown id %s", strings.Join(unknown, ", "))
	}
	out := make([]Result, 0, len(selected))
	for _, e := range selected {
		out = append(out, e.Run(opts))
	}
	return out, nil
}
