package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyRun runs one workload at the self-test scale through runOne, the same
// entry point the driver uses, and returns what it printed and the parsed
// result line.
func tinyRun(t *testing.T, spec *benchSpec, name string, trace bool) (string, resultLine) {
	t.Helper()
	cfg := config{workload: name, seed: 7, seconds: 10, trace: trace, tiny: true, outDir: t.TempDir()}
	var out bytes.Buffer
	if err := runOne(&out, spec, cfg); err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, line.Correct, line.Attempted, line.Failed)
	}
	if trace {
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
	return out.String(), line
}

// checkMetrics asserts the result line carries exactly the metrics of
// BENCHMARK.json, each finite and with its unit.
func checkMetrics(t *testing.T, name string, line resultLine, specs []metricSpec) {
	t.Helper()
	if len(line.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics in the result line, BENCHMARK.json names %d", name, len(line.Metrics), len(specs))
	}
	for _, m := range specs {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
		}
	}
}

var fingerprintRE = regexp.MustCompile(`fingerprint (.*)`)

// TestWorkloads runs every workload twice untraced and twice traced at the
// tiny scale: every metric of BENCHMARK.json must be reported, every check
// must pass, and what is exact per seed must repeat.
func TestWorkloads(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, spec.Workloads[i].Name, wl.name)
		}
		name := wl.name
		t.Run(name, func(t *testing.T) {
			text, first := tinyRun(t, spec, name, false)
			checkMetrics(t, name, first, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				// The human-readable part names every end-to-end metric with
				// its unit, and none of them may be zero.
				if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`).MatchString(text) {
					t.Errorf("%s: %s not printed with unit %s", name, m.Name, m.Unit)
				}
				if first.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m.Name, first.Metrics[m.Name].Value)
				}
			}
			text2, second := tinyRun(t, spec, name, false)
			for _, m := range []string{"sim_latency_s_p50", "sim_latency_s_p99"} {
				if first.Metrics[m].Value != second.Metrics[m].Value {
					t.Errorf("%s: %s differs between two runs of one seed: %v, %v", name, m, first.Metrics[m].Value, second.Metrics[m].Value)
				}
			}
			if a, b := fingerprintRE.FindString(text), fingerprintRE.FindString(text2); a == "" || a != b {
				t.Errorf("%s: fingerprints differ between two runs of one seed: %q, %q", name, a, b)
			}

			_, traced := tinyRun(t, spec, name, true)
			checkMetrics(t, name, traced, spec.PerLayer)
			_, traced2 := tinyRun(t, spec, name, true)
			if a, b := traced.Metrics["simnet.events"].Value, traced2.Metrics["simnet.events"].Value; a != b {
				t.Errorf("%s: simnet.events differs between two traced runs of one seed: %v, %v", name, a, b)
			}
		})
	}
}

// TestLayersReportedWhereStressed pins each workload to the layers it was
// built to stress: the traced run must report those layers' metrics as
// non-zero, and gate_check must show gatekeeper alone.
func TestLayersReportedWhereStressed(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"author_change": {"core.submit_ms", "analysis.lint_ms", "dataflow.analyze_ms", "cdl.compile_ms", "ci.sandbox_ms",
			"canary.run_ms", "landingstrip.gate_ms", "tailer.sim_s_p50", "simnet.run_ms", "cdl.cold_repo_compile_s"},
		"read_storm":   {"proxy.read_ns", "proxy.read_ns_quiet", "confclient.get_ns", "confclient.memo_hit_ratio"},
		"gate_check":   {"gatekeeper.check_ns", "gatekeeper.restraint_evals_per_check", "gatekeeper.pass_frac", "gatekeeper.load_us"},
		"push_wave":    {"simnet.run_ms", "zeus.write_ack_sim_ms_p50", "zeus.push_delta_frac", "proxy.watch_events", "proxy.hop_observer_proxy_sim_ms_p50"},
		"commit_burst": {"vcs.land_ms", "vcs.diff_ms", "vcs.heap_bytes_per_commit", "landingstrip.sim_work_s_p50", "landingstrip.conflict_rejects"},
		"vessel_swarm": {"simnet.run_ms", "packagevessel.new_chunks", "packagevessel.dedup_chunks", "packagevessel.v2_wire_frac", "blob.verify_ns_per_kb"},
	}
	for name, metrics := range want {
		_, line := tinyRun(t, spec, name, true)
		for _, m := range metrics {
			if line.Metrics[m].Value == 0 {
				t.Errorf("%s: %s is zero in the traced run", name, m)
			}
		}
		if name != "gate_check" {
			continue
		}
		for m, v := range line.Metrics {
			if l := layerOf(m); l != "gatekeeper" && l != "bench" && v.Value != 0 {
				t.Errorf("gate_check: %s = %v, but only gatekeeper should have worked", m, v.Value)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "core.Submit", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "cdl.CompileAll", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "simnet.RunFor", Start: 50, End: 90, Parent: 0, Op: 0},
		{Name: "core.Submit", Start: 100, End: 300, Parent: -1, Op: -1}, // set-up: not a timed op
	}}
	layers, total := tr.layers("core.Submit")
	if total != 100 {
		t.Fatalf("root total %d, want 100", total)
	}
	got := map[string]time.Duration{}
	for _, l := range layers {
		got[l.Layer] = l.Self
	}
	if got["core"] != 30 || got["cdl"] != 30 || got["simnet"] != 40 {
		t.Errorf("self times %v, want core 30, cdl 30, simnet 40", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q := quartiles([]float64{46, 1, 2, 4, 7, 37, 11, 16, 22, 29})
	if want := [3]float64{3.5, 13.5, 31}; q != want {
		t.Errorf("quartiles = %v, want %v", q, want)
	}
}

func writeSuite(t *testing.T, dir, name string, opsPerS []float64) string {
	t.Helper()
	f := suiteFile{Runs: len(opsPerS), Workloads: []suiteWorkload{{
		Name: "gate_check", Ops: []int{100}, FailedOps: []int{0},
		EndToEnd: map[string][]float64{"ops_per_s": opsPerS},
	}}}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.10}}}
	dir := t.TempDir()
	base := writeSuite(t, dir, "a.json", []float64{100, 101, 99, 100, 102})
	for _, tc := range []struct {
		name      string
		values    []float64
		verdict   string
		regressed bool
	}{
		{"same.json", []float64{100, 101, 99, 100, 102}, "ok (identical)", false},
		{"faster.json", []float64{150, 151, 149, 150, 152}, "ok", false},
		{"slower.json", []float64{80, 81, 79, 80, 82}, "regressed", true},
		{"noisy.json", []float64{60, 100, 140, 80, 120}, "unresolved", false},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, base, writeSuite(t, dir, tc.name, tc.values))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed=%v, output lacks %q:\n%s", tc.name, regressed, tc.verdict, out.String())
		}
	}
}
