package experiments

import (
	"fmt"
	"time"

	"configerator/internal/cdl"
	"configerator/internal/cdl/analysis"
)

// fanoutFS builds the paper's recompile-fan-out scenario (§3.1): one shared
// .cinc imported by n top-level configs. The .cinc carries a schema, a
// validator, and a deliberately non-trivial amount of evaluation work so
// the cost of re-evaluating it per dependent is visible.
func fanoutFS(n int) (cdl.MapFS, []string) {
	fs := cdl.MapFS{
		"lib/shared.cinc": `
			schema Job {
				1: string name;
				2: i32 priority = 1;
				3: list<string> tags = [];
				4: map<string, i64> limits = {};
			}
			validator Job(c) { assert(c.priority >= 0 && c.priority <= 10, "priority out of range"); }
			let total = 0;
			for (i in range(400)) {
				total = total + i * i;
			}
			let tiers = [];
			for (i in range(40)) {
				tiers = tiers + ["tier-" + str(i)];
			}
			def mk(name, pri) {
				return Job{name: name, priority: pri, tags: ["managed", name] + tiers, limits: {"budget": total}};
			}
			export mk("shared-default", 1);
		`,
	}
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("svc/app%03d.cconf", i)
		fs[p] = fmt.Sprintf("import \"lib/shared.cinc\";\nexport mk(\"svc-%03d\", %d);\n", i, i%10)
		paths = append(paths, p)
	}
	return fs, paths
}

// Lint measures the configlint driver over the shared-.cinc fan-out: cold
// analyzer wall-time, warm wall-time against a populated parse cache, the
// incremental cost of compiling after linting with the same engine, and
// the diagnostic yield on a corpus seeded with known-bad configs. The
// parse counters are exact invariants (a lint of n dependents parses the
// shared .cinc once); wall-clock numbers are environment-dependent and
// reported for the record.
func Lint(opts Options) Result {
	n := 100
	if opts.Quick {
		n = 40
	}
	fs, paths := fanoutFS(n)

	// Seed a handful of dirty dependents so the diagnostic counters are
	// non-trivial: an unused import (Warn), a dead-branch undefined
	// reference (Error), and a deprecated sitevar use (Warn).
	fs["lib/consts.cinc"] = "let LIMIT = 10;\n"
	fs["sitevars/old_flag.cinc"] = "let OLD = 1;\n"
	fs["svc/unused.cconf"] = "import \"lib/consts.cinc\";\nexport {a: 1};\n"
	fs["svc/deadref.cconf"] = "let on = false;\nif (on) {\n\tlet x = missing_name;\n}\nexport {on: on};\n"
	fs["svc/oldsite.cconf"] = "import \"sitevars/old_flag.cinc\";\nexport {v: OLD};\n"
	roots := append(append([]string{}, paths...),
		"svc/unused.cconf", "svc/deadref.cconf", "svc/oldsite.cconf")

	eng := cdl.NewEngine()
	driver := analysis.NewDriver(eng, fs)
	driver.DeprecatedSitevars = map[string]string{"old_flag": "use new_flag"}

	// Cold: every source parses exactly once, shared .cinc included.
	coldStart := time.Now()
	diags, err := driver.Run(roots)
	if err != nil {
		panic(err)
	}
	coldDur := time.Since(coldStart)
	cold := eng.Counters().Snapshot()

	// Warm: the same lint against a populated parse cache — what an
	// editor or pre-commit hook pays on re-runs.
	warmStart := time.Now()
	if _, err := driver.Run(roots); err != nil {
		panic(err)
	}
	warmDur := time.Since(warmStart)
	warm := eng.Counters().Snapshot()

	// Compile the clean dependents with the same engine: pipeline stage 1
	// lints then compiles, and the lint's parses must be reusable.
	compileStart := time.Now()
	if _, err := eng.CompileAll(fs, paths); err != nil {
		panic(err)
	}
	compileDur := time.Since(compileStart)
	after := eng.Counters().Snapshot()

	var errs, warns int
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
		switch d.Severity {
		case analysis.Error:
			errs++
		case analysis.Warn:
			warns++
		}
	}

	r := Result{ID: "configlint", Title: "configlint static-analysis driver (fan-out lint + compile reuse)"}
	r.metric("roots", float64(len(roots)), 0, false)
	r.metric("analyzers", float64(len(analysis.Analyzers())), 0, false)
	r.metric("cold_lint_ms", float64(coldDur.Microseconds())/1000, 0, false)
	r.metric("warm_lint_ms", float64(warmDur.Microseconds())/1000, 0, false)
	r.metric("compile_after_lint_ms", float64(compileDur.Microseconds())/1000, 0, false)
	r.metric("diagnostics", float64(len(diags)), 0, false)
	r.metric("diag_errors", float64(errs), 0, false)
	r.metric("diag_warnings", float64(warns), 0, false)
	// Exact cache invariants: cold lint parses each distinct source once
	// (shared .cinc included, despite n importers); a warm lint is pure
	// parse-cache hits; compiling after linting re-parses nothing.
	r.metric("cold_parse_miss", float64(cold["parse.miss"]), 0, false)
	r.metric("warm_parse_miss_delta", float64(warm["parse.miss"]-cold["parse.miss"]), 0, false)
	r.metric("compile_parse_miss_delta", float64(after["parse.miss"]-warm["parse.miss"]), 0, false)

	r.Text = eng.Counters().Table("cdl engine cache counters (after cold+warm lint, then compile)")
	r.Text += "\ndiagnostics by analyzer:\n"
	for _, a := range analysis.Analyzers() {
		if c := byAnalyzer[a.Name]; c > 0 {
			r.Text += fmt.Sprintf("  %-22s %d\n", a.Name, c)
		}
	}
	return r
}
