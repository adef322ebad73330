// Package ci models Sandcastle (§3.3): for a config change that affects
// frontend products, "in a sandbox environment, the Sandcastle tool
// automatically performs a comprehensive set of synthetic, continuous
// integration tests of the site under the new config".
//
// The sandbox runs registered tests against the proposed change set. The
// paper notes its blind spot — "continuous integration tests in a sandbox
// can have broad coverage, but may miss config errors due to the
// small-scale setup or other environment differences" — which the fault-
// injection experiment (§6.4) reproduces: load-dependent Type II errors
// pass the sandbox and are only caught (if at all) by large canary phases.
package ci

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"configerator/internal/cdl"
	"configerator/internal/cdl/analysis"
)

// ChangeSet is the proposed config artifacts, path → JSON content.
type ChangeSet map[string][]byte

// CompileChecker verifies the compiled artifacts in a change set — the
// sandbox's first gate, run before any synthetic test. It returns an error
// when an artifact does not match what the compiler produces.
type CompileChecker func(cs ChangeSet) error

// LintChecker statically analyzes the sources behind a change set and
// returns the diagnostics. The sandbox blocks the change when any
// diagnostic is Error severity; warnings surface in the logs without
// failing the run.
type LintChecker func(cs ChangeSet) []analysis.Diagnostic

// Test is one synthetic integration test.
type Test struct {
	Name string
	// Run inspects the proposed change set and returns an error on
	// failure. Tests run in a sandbox: they see the change, not the fleet.
	Run func(cs ChangeSet) error
	// Cost is the test's contribution to wall-clock duration.
	Cost time.Duration
}

// Result is the outcome of a sandbox run, posted to the review diff.
type Result struct {
	Passed   bool
	Failures []string
	Logs     []string
	Duration time.Duration
}

// Sandbox is a Sandcastle instance with its registered test suite.
type Sandbox struct {
	tests []Test
	// SetupCost models sandbox provisioning.
	SetupCost time.Duration
	// Compile, when set, re-verifies the change set's artifacts against
	// the compiler before the test suite runs (cost 0: the engine's
	// result cache makes the double-compile nearly free).
	Compile CompileChecker
	// Lint, when set, runs static analysis before the compile check and
	// the test suite; Error diagnostics fail the run (the engine's parse
	// cache makes the re-lint nearly free).
	Lint LintChecker

	// Runs counts sandbox executions.
	Runs int
}

// NewSandbox returns a sandbox with the given provisioning cost.
func NewSandbox(setupCost time.Duration) *Sandbox {
	return &Sandbox{SetupCost: setupCost}
}

// Register adds a test to the suite.
func (s *Sandbox) Register(t Test) { s.tests = append(s.tests, t) }

// TestCount reports the number of registered tests.
func (s *Sandbox) TestCount() int { return len(s.tests) }

// Run executes the full suite against a change set.
func (s *Sandbox) Run(cs ChangeSet) Result {
	s.Runs++
	res := Result{Passed: true, Duration: s.SetupCost}
	if s.Lint != nil {
		diags := s.Lint(cs)
		for _, d := range diags {
			res.Logs = append(res.Logs, "LINT "+d.String())
		}
		if analysis.HasErrors(diags) {
			res.Passed = false
			errs := analysis.Filter(diags, analysis.Error)
			res.Failures = append(res.Failures, fmt.Sprintf("lint: %s (first: %s)",
				analysis.Summary(errs), errs[0]))
			res.Logs = append(res.Logs, "FAIL lint")
		} else {
			res.Logs = append(res.Logs, "PASS lint")
		}
	}
	if s.Compile != nil {
		if err := s.Compile(cs); err != nil {
			res.Passed = false
			res.Failures = append(res.Failures, fmt.Sprintf("compile: %v", err))
			res.Logs = append(res.Logs, fmt.Sprintf("FAIL compile: %v", err))
		} else {
			res.Logs = append(res.Logs, "PASS compile")
		}
	}
	for _, t := range s.tests {
		res.Duration += t.Cost
		if err := t.Run(cs); err != nil {
			res.Passed = false
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", t.Name, err))
			res.Logs = append(res.Logs, fmt.Sprintf("FAIL %s: %v", t.Name, err))
		} else {
			res.Logs = append(res.Logs, "PASS "+t.Name)
		}
	}
	return res
}

// LintCheck returns a LintChecker that statically analyzes the source of
// every artifact in the change set through the shared engine's parse
// cache. sources maps artifact path → source path; artifacts without a
// mapping (raw configs) are skipped.
func LintCheck(eng *cdl.Engine, fs cdl.FileSystem, sources map[string]string) LintChecker {
	return func(cs ChangeSet) []analysis.Diagnostic {
		var roots []string
		for artifact := range cs {
			if src, ok := sources[artifact]; ok {
				roots = append(roots, src)
			}
		}
		if len(roots) == 0 {
			return nil
		}
		sort.Strings(roots)
		diags, err := analysis.NewDriver(eng, fs).Run(roots)
		if err != nil {
			p := cdl.Pos{File: roots[0], Line: 1, Col: 1}
			return []analysis.Diagnostic{{
				Pos: p, End: p, Severity: analysis.Error,
				Analyzer: "driver", Message: err.Error(),
			}}
		}
		return diags
	}
}

// RecompileCheck returns a CompileChecker that recompiles each artifact's
// source through the engine's batch API and compares bytes. sources maps
// artifact path → source path; artifacts without a mapping (raw configs)
// are skipped. Because the pipeline compiled the same sources moments
// earlier through the same engine, this re-verification is served almost
// entirely from the result cache.
func RecompileCheck(eng *cdl.Engine, fs cdl.FileSystem, sources map[string]string) CompileChecker {
	return func(cs ChangeSet) error {
		var paths []string
		bySrc := make(map[string]string)
		for artifact := range cs {
			src, ok := sources[artifact]
			if !ok {
				continue
			}
			paths = append(paths, src)
			bySrc[src] = artifact
		}
		if len(paths) == 0 {
			return nil
		}
		sort.Strings(paths)
		results, err := eng.CompileAll(fs, paths)
		if err != nil {
			return err
		}
		for _, res := range results {
			artifact := bySrc[res.Path]
			if !bytes.Equal(res.JSON, cs[artifact]) {
				return fmt.Errorf("ci: artifact %s does not match compiler output of %s", artifact, res.Path)
			}
		}
		return nil
	}
}
