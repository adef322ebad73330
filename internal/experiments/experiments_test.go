package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

var opts = Options{Seed: 42, Quick: true}

func relClose(t *testing.T, r Result, key string, relTol float64) {
	t.Helper()
	paper, ok := r.PaperValues[key]
	if !ok {
		t.Fatalf("%s: no paper value for %s", r.ID, key)
	}
	got := r.Metrics[key]
	if paper == 0 {
		t.Fatalf("%s: paper value for %s is zero", r.ID, key)
	}
	if math.Abs(got-paper)/math.Abs(paper) > relTol {
		t.Errorf("%s: %s = %.4g, paper %.4g (tol %.0f%%)", r.ID, key, got, paper, 100*relTol)
	}
}

func TestFig7(t *testing.T) {
	r := Fig7ConfigGrowth(opts)
	relClose(t, r, "compiled_share_at_end", 0.10)
	if r.Metrics["growth_second_half_vs_first"] <= 1.0 {
		t.Errorf("growth not convex: %v", r.Metrics["growth_second_half_vs_first"])
	}
	if !strings.Contains(r.Text, "compiled") {
		t.Error("missing series")
	}
}

func TestFig8(t *testing.T) {
	r := Fig8ConfigSizes(opts)
	relClose(t, r, "raw_p50_bytes", 0.30)
	relClose(t, r, "compiled_p50_bytes", 0.30)
	relClose(t, r, "raw_p95_bytes", 0.35)
	relClose(t, r, "compiled_p95_bytes", 0.35)
}

func TestFig9Fig10(t *testing.T) {
	f9 := Fig9Freshness(opts)
	if f9.Metrics["touched_within_90d"] < 0.1 || f9.Metrics["untouched_for_300d"] < 0.1 {
		t.Errorf("freshness extremes lack mass: %+v", f9.Metrics)
	}
	f10 := Fig10AgeAtUpdate(opts)
	if f10.Metrics["updates_on_configs_younger_60d"] < 0.1 ||
		f10.Metrics["updates_on_configs_older_300d"] < 0.05 {
		t.Errorf("age-at-update extremes lack mass: %+v", f10.Metrics)
	}
}

func TestTable1(t *testing.T) {
	r := Table1UpdatesPerConfig(opts)
	relClose(t, r, "compiled_written_once", 0.20)
	relClose(t, r, "raw_written_once", 0.12)
	relClose(t, r, "raw_automated_update_fraction", 0.05)
	if r.Metrics["raw_top1pct_update_share"] <= r.Metrics["compiled_top1pct_update_share"] {
		t.Error("raw updates must be more skewed than compiled")
	}
}

func TestTable2(t *testing.T) {
	r := Table2LineChanges(opts)
	relClose(t, r, "compiled_two_line_updates", 0.10)
	relClose(t, r, "raw_two_line_updates", 0.10)
}

func TestTable3(t *testing.T) {
	r := Table3CoAuthors(opts)
	relClose(t, r, "compiled_single_author", 0.15)
	relClose(t, r, "raw_single_author", 0.15)
}

func TestFig11(t *testing.T) {
	r := Fig11DailyCommits(opts)
	relClose(t, r, "configerator_weekend_ratio", 0.35)
	if r.Metrics["configerator_weekend_ratio"] <= r.Metrics["www_weekend_ratio"] {
		t.Error("configerator weekends must outpace www")
	}
}

func TestFig12(t *testing.T) {
	r := Fig12HourlyCommits(opts)
	if r.Metrics["peak_to_trough_ratio"] < 3 {
		t.Errorf("no diurnal pattern: %v", r.Metrics["peak_to_trough_ratio"])
	}
	if r.Metrics["night_floor_commits_per_hour"] <= 0 {
		t.Error("automation floor missing")
	}
}

func TestFig13(t *testing.T) {
	r := Fig13CommitThroughput(opts)
	relClose(t, r, "throughput_small_repo_per_min", 0.20)
	relClose(t, r, "throughput_1M_files_per_min", 0.30)
	if r.Metrics["slowdown_factor"] < 10 {
		t.Errorf("slowdown = %v, want >> 1", r.Metrics["slowdown_factor"])
	}
}

func TestFig14(t *testing.T) {
	r := Fig14PropagationLatency(opts)
	base := r.Metrics["baseline_latency_s"]
	// Paper baseline 14.5 s; ours lacks the planetary-fanout 4.5 s term.
	if base < 7 || base > 18 {
		t.Errorf("baseline = %vs, want ~10-14.5", base)
	}
	if r.Metrics["peak_over_baseline"] < 1.5 {
		t.Errorf("load pattern missing: peak/base = %v", r.Metrics["peak_over_baseline"])
	}
}

func TestFig15(t *testing.T) {
	r := Fig15GatekeeperChecks(opts)
	if r.Metrics["single_core_checks_per_sec"] < 100_000 {
		t.Errorf("check rate implausibly low: %v", r.Metrics["single_core_checks_per_sec"])
	}
	peak := r.Metrics["sitewide_peak_billion_per_sec"]
	if peak < 0.5 || peak > 10 {
		t.Errorf("site-wide peak = %v billion/s, want 'billions'", peak)
	}
}

func TestSec64(t *testing.T) {
	r := Sec64ConfigErrors(opts)
	for _, k := range []string{"escape_share_type1", "escape_share_type2", "escape_share_type3"} {
		paper := r.PaperValues[k]
		got := r.Metrics[k]
		if math.Abs(got-paper) > 0.22 {
			t.Errorf("%s = %.2f, paper %.2f", k, got, paper)
		}
	}
	if r.Metrics["validator_catches"] == 0 || r.Metrics["canary_phase2_catches"] == 0 {
		t.Errorf("defense layers idle: %+v", r.Metrics)
	}
}

func TestAblations(t *testing.T) {
	if s := AblationPushVsPull(opts).Metrics["pull_over_push_messages"]; s < 2 {
		t.Errorf("push should need fewer messages: ratio %v", s)
	}
	if s := AblationLandingStrip(opts).Metrics["speedup"]; s < 2 {
		t.Errorf("landing strip speedup = %v", s)
	}
	if s := AblationMultiRepo(opts).Metrics["speedup"]; s < 2 {
		t.Errorf("multi-repo speedup = %v", s)
	}
	if s := AblationP2PvsCentral(opts).Metrics["speedup"]; s < 1.3 {
		t.Errorf("p2p speedup = %v", s)
	}
	if s := AblationGatekeeperOptimizer(opts).Metrics["saving_factor"]; s < 3 {
		t.Errorf("optimizer saving = %v", s)
	}
	if s := AblationMobileDelta(opts).Metrics["bandwidth_saving"]; s < 5 {
		t.Errorf("mobile delta saving = %v", s)
	}
}

func TestExtensionRiskAdvisor(t *testing.T) {
	r := ExtensionRiskAdvisor(opts)
	frac := r.Metrics["flagged_update_fraction"]
	if frac <= 0.005 || frac >= 1.0 {
		t.Errorf("flagged fraction = %.3f", frac)
	}
	if r.Metrics["dormant_flags_per_1000"] <= 0 {
		t.Error("dormant-change signal never fired on a history where 35%% of configs go 300d untouched")
	}
	// The advisor's dormancy signal must agree with the independent
	// analytic count over the same history.
	if ratio := r.Metrics["dormant_vs_analytic_ratio"]; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("dormant_vs_analytic_ratio = %.3f, want 1.0", ratio)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	results := All(opts)
	if len(results) != 25 || len(Catalog()) != 25 {
		t.Fatalf("All returned %d results", len(results))
	}
	// The catalog keys must match what each experiment actually reports,
	// or `benchreport -only` silently diverges from the result IDs.
	for i, e := range Catalog() {
		if results[i].ID != e.ID {
			t.Errorf("catalog[%d] = %q but result ID = %q", i, e.ID, results[i].ID)
		}
	}
	seen := make(map[string]bool)
	for _, r := range results {
		if r.ID == "" || r.Text == "" || len(r.Metrics) == 0 {
			t.Errorf("incomplete result: %+v", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestLint(t *testing.T) {
	r := Lint(opts)
	roots := r.Metrics["roots"]
	// The corpus has three library files beyond the roots (shared.cinc,
	// consts.cinc, old_flag.cinc); a cold lint parses each distinct
	// source exactly once despite the fan-out on shared.cinc.
	if got := r.Metrics["cold_parse_miss"]; got != roots+3 {
		t.Errorf("cold_parse_miss = %v, want %v", got, roots+3)
	}
	// A warm lint is pure parse-cache hits, and compiling afterwards
	// with the same engine re-parses nothing the lint already read.
	if got := r.Metrics["warm_parse_miss_delta"]; got != 0 {
		t.Errorf("warm_parse_miss_delta = %v, want 0", got)
	}
	if got := r.Metrics["compile_parse_miss_delta"]; got != 0 {
		t.Errorf("compile_parse_miss_delta = %v, want 0", got)
	}
	// The seeded dirty configs must yield the expected findings.
	if got := r.Metrics["diag_errors"]; got != 1 {
		t.Errorf("diag_errors = %v, want 1 (dead-branch undefined reference)", got)
	}
	if got := r.Metrics["diag_warnings"]; got < 2 {
		t.Errorf("diag_warnings = %v, want >= 2 (unused import + deprecated sitevar)", got)
	}
	if !strings.Contains(r.Text, "diagnostics by analyzer") {
		t.Error("analyzer breakdown missing from Text")
	}
}

// TestRunValidatesIDsFirst: an unknown id fails the whole selection before
// any experiment runs (a typo after a minutes-long id costs nothing), and
// the error names every unknown id in sorted order.
func TestRunValidatesIDsFirst(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ids     []string
		wantErr string
		wantIDs []string
	}{
		{"known, catalog order", []string{"table2", "fig7"}, "", []string{"fig7", "table2"}},
		{"duplicate runs once", []string{"fig7", "fig7"}, "", []string{"fig7"}},
		{"unknown after a slow one", []string{"scale", "typo"}, `experiments: unknown id "typo"`, nil},
		{"two unknown, sorted", []string{"zeta", "fig7", "alpha"}, `experiments: unknown id "alpha", "zeta"`, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Full size: if validation came after running, "scale" here
			// would take minutes and the test would time out.
			results, err := Run(Options{Seed: 42}, tc.ids)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %s", err, tc.wantErr)
				}
				if results != nil {
					t.Errorf("results = %d entries alongside an error", len(results))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range results {
				got = append(got, r.ID)
			}
			if strings.Join(got, ",") != strings.Join(tc.wantIDs, ",") {
				t.Errorf("ran %v, want %v", got, tc.wantIDs)
			}
		})
	}
}

// The four scenario tests below assert on the outcome struct the scenario
// returns — simulated-clock values and exact counts, which one seed
// reproduces bit for bit — not on the rendered Result.

func TestVessel(t *testing.T) {
	o := vesselScenario(opts)
	// (a) Fleet delivery within the §5 four-minute claim.
	if max := o.Fleet.quantile(1); max <= 0 || max >= 4*time.Minute {
		t.Errorf("fleet delivery max = %v, want (0, 4m)", max)
	}
	if o.Fleet.sameCluster < 0.5 {
		t.Errorf("same-cluster chunk fraction = %.2f, want >= 0.5", o.Fleet.sameCluster)
	}
	// (b) The registry stores only the changed chunks of v2, and the fleet
	// moves under 25% of the full package's bytes for it.
	d := o.Delta
	wantNew := int(d.changedFrac * float64(d.fullChunks))
	if d.newChunks != wantNew || d.dedupChunks != d.fullChunks-wantNew {
		t.Errorf("publish stats new=%d dedup=%d, want %d/%d",
			d.newChunks, d.dedupChunks, wantNew, d.fullChunks-wantNew)
	}
	if d.wireFrac <= 0 || d.wireFrac >= 0.25 {
		t.Errorf("delta wire fraction = %.3f, want (0, 0.25)", d.wireFrac)
	}
	// (c) The restarted agent re-fetches only what the journal could not
	// verify: fetches across both lives add up to the manifest exactly.
	res := o.Resume
	if !res.completed || !res.noRefetch {
		t.Errorf("resume: completed=%v noRefetch=%v", res.completed, res.noRefetch)
	}
	if res.verified <= 0 || res.refetched != res.chunksTotal-res.verified || res.lifetime != res.chunksTotal {
		t.Errorf("resume accounting: %+v", res)
	}
	// Same seed, same bits.
	if !o.Identical {
		t.Errorf("determinism fingerprints diverge: %v", o.Fingerprints)
	}
}

func TestAvailability(t *testing.T) {
	out := availabilityScenario(opts.Seed)
	on, off := out.on, out.off
	// With stale-serve on, every read during the outage succeeds (served
	// from cache/disk with staleness metadata); refusing what is not fresh
	// serves fewer, and every read it fails is one that on served degraded.
	if on.Reads == 0 || on.OK != on.Reads {
		t.Errorf("stale-serve-on served %d of %d reads, want all", on.OK, on.Reads)
	}
	if off.Reads != on.Reads || off.OK >= off.Reads {
		t.Errorf("stale-serve-off served %d of %d reads, want fewer than all %d",
			off.OK, off.Reads, on.Reads)
	}
	if off.RefusedReads == 0 || off.RefusedReads != on.DegradedReads {
		t.Errorf("stale-serve-off refused %d reads, on served %d degraded — the contrast proves nothing",
			off.RefusedReads, on.DegradedReads)
	}
	// The counts a run with the proxies themselves refusing produced.
	if on.Reads != 1440 || off.OK != 1328 || off.RefusedReads != 112 {
		t.Errorf("reads = %d, stale-serve-off ok = %d, refused = %d, want 1440, 1328, 112",
			on.Reads, off.OK, off.RefusedReads)
	}
	// The degraded path actually exercised: stale reads served during the
	// outage, and staleness quantiles measured.
	if on.StaleReads == 0 {
		t.Error("no stale reads served during the outage")
	}
	if on.StalenessP99Ms <= 0 || on.StalenessP99Ms < on.StalenessP50Ms {
		t.Errorf("staleness p50 = %.1fms, p99 = %.1fms", on.StalenessP50Ms, on.StalenessP99Ms)
	}
	// Convergence after the final heal must be measured and bounded.
	if c := out.convergence; c < 0 || c > 30*time.Second {
		t.Errorf("convergence after heal = %v, want within [0, 30s]", c)
	}
	// Every scripted fault fired and was mirrored into the obs counters.
	wantCounters := map[string]int64{
		"fault.injected": 10, "fault.crash": 2, "fault.restart": 2,
		"fault.partition_group": 1, "fault.heal_group": 1, "fault.call": 4,
	}
	if out.scripted != 10 || out.fired != out.scripted {
		t.Errorf("faults fired = %d, scripted = %d, want 10 of 10", out.fired, out.scripted)
	}
	for k, want := range wantCounters {
		if got := out.counters[k]; got != want {
			t.Errorf("counter %s = %d, want %d", k, got, want)
		}
	}

	// The fleet-health plane saw the outage. Both SLOs fired, every
	// scripted outage window was covered by an active alert, and every
	// alert cleared within two sweeps of the fleet reconverging after the
	// last heal.
	mon := out.mon
	if mon.Sweeps == 0 {
		t.Fatal("monitor never swept")
	}
	slos := map[string]bool{}
	for _, a := range mon.Alerts {
		slos[a.SLO] = true
		if a.FiredOffMs < 5_000 {
			t.Errorf("alert %s fired at %.0fms, before the first fault", a.SLO, a.FiredOffMs)
		}
	}
	if len(mon.Alerts) != 2 || !slos["fleet-convergence"] || !slos["staleness-under-degraded"] {
		t.Errorf("SLO alerts fired = %v, want one each of fleet-convergence and staleness-under-degraded", slos)
	}
	if len(mon.Windows) != 5 {
		t.Errorf("%d outage windows derived from the fault plan, want 5", len(mon.Windows))
	}
	if !mon.AllWindowsCovered {
		t.Errorf("outage windows not all covered by alerts: %+v", mon.Windows)
	}
	if !mon.AllAlertsCleared {
		t.Errorf("alerts still active after heal: %+v", mon.Alerts)
	}
	if mon.ClearedWithinSweeps > 2 {
		t.Errorf("alerts cleared %.1f sweeps after reconvergence, want <= 2", mon.ClearedWithinSweeps)
	}
	// Continuous propagation measurement (the §6.3 curve, monitored):
	// healthy-path p50 stays in the push-propagation regime.
	if mon.TimeToHeadP50Ms <= 0 || mon.TimeToHeadP50Ms > 5_000 {
		t.Errorf("monitored time-to-head p50 = %.1fms", mon.TimeToHeadP50Ms)
	}
	if mon.TimeToHeadP99Ms < mon.TimeToHeadP50Ms {
		t.Errorf("time-to-head p99 (%.1f) < p50 (%.1f)", mon.TimeToHeadP99Ms, mon.TimeToHeadP50Ms)
	}
}

func TestMonitor(t *testing.T) {
	o := monitorScenario(opts.Seed)
	// Continuous convergence measurement: one time-to-head sample per
	// (proxy, version), quantiles in the push-propagation regime.
	if want := int64(o.Proxies * (o.Writes + 1)); o.Proxies == 0 || o.Samples != want {
		t.Errorf("time-to-head samples = %d, want %d", o.Samples, want)
	}
	if o.TimeToHeadP50 <= 0 || o.TimeToHeadP50 > 2*time.Second {
		t.Errorf("time-to-head p50 = %v", o.TimeToHeadP50)
	}
	if o.TimeToHeadP99 < o.TimeToHeadP50 {
		t.Errorf("p99 (%v) < p50 (%v)", o.TimeToHeadP99, o.TimeToHeadP50)
	}
	// The injected outage produced exactly one fire/clear cycle with
	// bounded latency.
	if o.AlertsFired != 1 || o.AlertsCleared != 1 {
		t.Errorf("alert cycle fired=%d cleared=%d, want 1 and 1", o.AlertsFired, o.AlertsCleared)
	}
	if o.FireLatency <= 0 || o.FireLatency > 15*time.Second {
		t.Errorf("fire latency = %v", o.FireLatency)
	}
	if o.ClearLatency <= 0 || o.ClearLatency > 15*time.Second {
		t.Errorf("clear latency = %v", o.ClearLatency)
	}
}

func TestScale(t *testing.T) {
	o := scaleScenario(opts)
	// Same seed, same fleet → identical delivery totals.
	if !o.Push.Run.Deterministic {
		t.Error("push scenario not deterministic across same-seed runs")
	}
	if !o.Mobile.Run.Deterministic {
		t.Error("mobile scenario not deterministic across same-seed runs")
	}

	// §6.3 push: the whole fleet converges, with the S-curve topping out in
	// the paper's regime (~4.5 s; the calibrated spreads cap at ~4.3 s plus
	// jitter, and the 25 ms sweep quantizes upward).
	if o.Push.ConvergedFrac != 1.0 {
		t.Errorf("push converged frac = %.4f, want 1.0", o.Push.ConvergedFrac)
	}
	if o.Push.P99Seconds <= 1 || o.Push.P99Seconds > 6 {
		t.Errorf("push p99 = %.2fs, want in (1s, 6s]", o.Push.P99Seconds)
	}
	if o.Push.P50Seconds <= 0 || o.Push.P50Seconds > o.Push.P99Seconds {
		t.Errorf("push p50 = %.2fs vs p99 = %.2fs", o.Push.P50Seconds, o.Push.P99Seconds)
	}
	if o.Push.Run.Dropped != 0 {
		t.Errorf("push dropped %d messages on a healthy fleet", o.Push.Run.Dropped)
	}

	// §5 mobile hybrid: the push wave reaches ~90% within a minute and the
	// regular poll heals every straggler within one interval.
	m := o.Mobile
	if m.PushReachFrac < 0.85 || m.PushReachFrac > 0.95 {
		t.Errorf("push reach frac = %.3f, want ~0.9", m.PushReachFrac)
	}
	if m.ReachedIn60sFrac < m.PushReachFrac-0.02 {
		t.Errorf("reached in 60s = %.3f < push reach %.3f: pushed devices did not re-pull promptly",
			m.ReachedIn60sFrac, m.PushReachFrac)
	}
	if !m.CaughtUpByPoll {
		t.Error("stragglers did not catch up within a poll interval")
	}
	if m.CatchupP99Sec <= 0 || m.CatchupP99Sec > m.PollIntervalMin*60 {
		t.Errorf("catch-up p99 = %.0fs, want within one %.0f-minute poll interval",
			m.CatchupP99Sec, m.PollIntervalMin)
	}
	if m.NotModifiedFrac <= 0 {
		t.Error("no poll ever hit the not-modified path")
	}

	for name, run := range map[string]scaleRun{"push": o.Push.Run, "mobile": m.Run} {
		if run.Events == 0 || run.BytesOnWire == 0 || run.Delivered == 0 {
			t.Fatalf("%s accounting empty: %+v", name, run)
		}
	}
	// Wall-clock floors for the mobile scenario only: the benchmark has no
	// mobile workload yet (push_wave records simnet.events_per_s and
	// simnet.allocs_per_event for the push side). Generous, so slow CI
	// machines pass while a core regression — heap scheduler, per-event
	// allocation — still trips them.
	if m.Run.EventsPerSec < 50_000 {
		t.Errorf("mobile events/sec = %.0f, want >= 50k", m.Run.EventsPerSec)
	}
	if m.Run.AllocsPerEvent > 32 {
		t.Errorf("mobile allocs/event = %.1f, want <= 32", m.Run.AllocsPerEvent)
	}
}
