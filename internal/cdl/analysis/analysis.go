// Package analysis is a go/analysis-style static-analysis framework for
// CDL. It exists because the compiler only reports the first runtime
// error it trips over, while many config defects — unused imports, dead
// exports, missing validators, references that only fail on one branch —
// are statically visible in the AST. The paper's pipeline (§3.1–§3.3)
// gates changes on compilation and sandbox tests; configlint adds a
// cheaper, earlier gate that needs no evaluation at all.
//
// The shape mirrors golang.org/x/tools/go/analysis: an Analyzer declares a
// name, documentation, and a Run function; the driver hands each Run a
// Pass holding one parsed module plus precomputed facts about its import
// closure; analyzers report positioned Diagnostics. A registry collects
// the built-in analyzers so every consumer — the configlint CLI, pipeline
// stage 1, the CI sandbox, and the landing strip gate — runs the same
// suite.
package analysis

import (
	"fmt"
	"sort"
	"sync"

	"configerator/internal/cdl"
)

// Severity classifies a diagnostic. Only Error diagnostics gate the
// pipeline, the CI sandbox, and the landing strip; Warn and Info surface
// in reviews and the CLI without blocking.
type Severity int

// Severity levels, ordered from least to most severe.
const (
	Info Severity = iota
	Warn
	Error
)

// String renders the severity in lowercase, matching CLI output.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// ParseSeverity converts a CLI flag value to a Severity.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "info":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("analysis: unknown severity %q (want error, warn, or info)", s)
}

// Diagnostic is one finding, anchored to a source range.
type Diagnostic struct {
	// Pos and End delimit the source range ([Pos, End), End exclusive).
	// Pos.File names the module-relative source path.
	Pos cdl.Pos `json:"pos"`
	End cdl.Pos `json:"end"`
	// Severity is the finding's class.
	Severity Severity `json:"-"`
	// Analyzer is the reporting analyzer's name.
	Analyzer string `json:"analyzer"`
	// Message is the human-readable finding.
	Message string `json:"message"`
	// SuggestedFix, when non-empty, is a one-line remediation hint.
	SuggestedFix string `json:"suggested_fix,omitempty"`
}

// String renders "file:line:col: severity: message [analyzer]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s [%s]", d.Pos, d.Severity, d.Message, d.Analyzer)
}

// Analyzer is one static check, named and documented so CLI output and
// docs can reference it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("unused-import").
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run inspects the Pass's module and reports diagnostics via
	// Pass.Report. It must not retain the Pass after returning.
	Run func(*Pass)
}

// Pass carries everything one analyzer invocation may inspect: the parsed
// module, facts about its import closure, and the whole-universe facts
// (importer edges) that cross-module analyzers need.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Path is the module's repository-relative source path.
	Path string
	// Module is the parsed AST.
	Module *cdl.Module
	// Facts describes the module's bindings, imports, schemas, and
	// validators (including everything visible through imports).
	Facts *ModuleFacts
	// Universe holds every module the driver loaded plus reverse import
	// edges, for analyzers that reason across modules (dead-export,
	// import-cycle).
	Universe *Universe
	// DeprecatedSitevars maps deprecated sitevar names to replacement
	// notes (driver configuration; empty when unset).
	DeprecatedSitevars map[string]string

	mu    *sync.Mutex
	diags *[]Diagnostic
}

// Report records a diagnostic, stamping the analyzer name.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.mu.Lock()
	*p.diags = append(*p.diags, d)
	p.mu.Unlock()
}

// Reportf reports a diagnostic covering [pos, end) with a formatted
// message.
func (p *Pass) Reportf(sev Severity, pos, end cdl.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, End: end, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// ---- Registry ----

var (
	regMu    sync.Mutex
	registry []*Analyzer
)

// Register adds an analyzer to the global registry. Duplicate names panic:
// analyzer names appear in golden files and suppression comments, so a
// collision is a programming error.
func Register(a *Analyzer) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, r := range registry {
		if r.Name == a.Name {
			panic("analysis: duplicate analyzer " + a.Name)
		}
	}
	registry = append(registry, a)
}

// Analyzers returns the registered analyzers sorted by name.
func Analyzers() []*Analyzer {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---- Diagnostic set helpers ----

// SortDiagnostics orders diagnostics by file, line, column, analyzer,
// message — the deterministic order every consumer relies on.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Filter returns the diagnostics at or above the given severity.
func Filter(diags []Diagnostic, min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether any diagnostic is Error severity — the
// blocking condition shared by pipeline stage 1, ci.Sandbox, and the
// landing strip gate.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Summary renders "N errors, M warnings, K infos".
func Summary(diags []Diagnostic) string {
	var e, w, i int
	for _, d := range diags {
		switch d.Severity {
		case Error:
			e++
		case Warn:
			w++
		default:
			i++
		}
	}
	return fmt.Sprintf("%d errors, %d warnings, %d infos", e, w, i)
}
