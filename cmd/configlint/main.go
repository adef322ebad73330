// Command configlint runs the CDL static-analysis suite over a config
// tree — the same analyzers that gate pipeline stage 1, the CI sandbox,
// and the landing strip, usable from an editor or a pre-commit hook.
//
// Usage:
//
//	configlint [flags] [path ...]
//	configlint blast [flags] <path|sitevar:name|gatekeeper:name|env:NAME> ...
//	configlint why [flags] <artifact> [field]
//
// Paths are files or directories relative to the tree root (-C),
// defaulting to the whole tree. Directories are walked for .cconf and
// .cinc files; import paths resolve against the root, exactly like the
// compiler. -severity filters the displayed diagnostics (text and JSON
// identically) as well as gating the exit code.
//
// The blast subcommand answers "what does this edit reach": the downstream
// artifacts, consumer bindings, canary domains, and deterministic risk
// score of changing the given paths or external-input tokens. The why
// subcommand answers the inverse: where an artifact (or one field of it)
// gets its value from — every module, sitevar, gatekeeper, and env input
// on its dataflow paths. Both accept -json.
//
// Exit code contract:
//
//	0  no diagnostic at or above the -severity threshold
//	1  at least one diagnostic at or above the threshold
//	2  internal error (bad flags, unreadable tree, unknown artifact/field)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"configerator/internal/cdl"
	"configerator/internal/cdl/analysis"
	"configerator/internal/cdl/analysis/dataflow"
)

type options struct {
	root     string
	jsonOut  bool
	severity string
	// deprecated holds -deprecated name=note pairs.
	deprecated map[string]string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "blast":
			return runBlast(args[1:], stdout, stderr)
		case "why":
			return runWhy(args[1:], stdout, stderr)
		}
	}
	opts := options{deprecated: map[string]string{}}
	fs := flag.NewFlagSet("configlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.root, "C", ".", "config tree root; import paths resolve against it")
	fs.BoolVar(&opts.jsonOut, "json", false, "emit diagnostics as JSON")
	fs.StringVar(&opts.severity, "severity", "error",
		"exit non-zero when a diagnostic at or above this severity exists (error, warn, info)")
	fs.Func("deprecated", "mark a sitevar deprecated, as name=note (repeatable)", func(v string) error {
		name, note, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("want name=note, got %q", v)
		}
		opts.deprecated[name] = note
		return nil
	})
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: configlint [flags] [path ...]\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stderr, "  %-20s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	threshold, err := analysis.ParseSeverity(opts.severity)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	roots, err := collectRoots(opts.root, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "configlint:", err)
		return 2
	}
	if len(roots) == 0 {
		fmt.Fprintln(stderr, "configlint: no .cconf or .cinc files found")
		return 2
	}

	driver := analysis.NewDriver(cdl.NewEngine(), cdl.DirFS(opts.root))
	driver.DeprecatedSitevars = opts.deprecated
	diags, err := driver.Run(roots)
	if err != nil {
		fmt.Fprintln(stderr, "configlint:", err)
		return 2
	}

	// -severity filters what is displayed — in text and JSON identically —
	// and the same filtered set decides the exit code.
	shown := analysis.Filter(diags, threshold)
	if opts.jsonOut {
		writeJSON(stdout, shown)
	} else {
		for _, d := range shown {
			fmt.Fprintln(stdout, d.String())
			if d.SuggestedFix != "" {
				fmt.Fprintf(stdout, "\tfix: %s\n", d.SuggestedFix)
			}
		}
		if len(shown) > 0 {
			fmt.Fprintln(stdout, analysis.Summary(shown))
		}
	}
	if len(shown) > 0 {
		return 1
	}
	return 0
}

// analyzeTree runs the whole-repo dataflow analysis over every .cconf
// artifact under the tree root.
func analyzeTree(root string, stderr io.Writer) (*dataflow.Repo, bool) {
	paths, err := collectRoots(root, nil)
	if err != nil {
		fmt.Fprintln(stderr, "configlint:", err)
		return nil, false
	}
	var cconfs []string
	for _, p := range paths {
		if strings.HasSuffix(p, ".cconf") {
			cconfs = append(cconfs, p)
		}
	}
	if len(cconfs) == 0 {
		fmt.Fprintln(stderr, "configlint: no .cconf artifacts found")
		return nil, false
	}
	ix := dataflow.NewIndex(cdl.NewEngine())
	rep := ix.Analyze(cdl.DirFS(root), cconfs)
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "configlint:", e)
	}
	return rep, true
}

// runBlast implements `configlint blast`: the forward query, diff → reach.
func runBlast(args []string, stdout, stderr io.Writer) int {
	var root string
	var jsonOut bool
	fs := flag.NewFlagSet("configlint blast", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&root, "C", ".", "config tree root")
	fs.BoolVar(&jsonOut, "json", false, "emit the radius as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: configlint blast [flags] <path|sitevar:name|gatekeeper:name|env:NAME> ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	rep, ok := analyzeTree(root, stderr)
	if !ok {
		return 2
	}
	rad := rep.Radius(fs.Args())
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rad)
		return 0
	}
	fmt.Fprintf(stdout, "changed: %s\n", strings.Join(rad.Changed, ", "))
	fmt.Fprintf(stdout, "artifacts (%d):\n", len(rad.Artifacts))
	for _, a := range rad.Artifacts {
		fmt.Fprintf(stdout, "  %s\n", a)
	}
	fmt.Fprintf(stdout, "consumers (%d):\n", len(rad.Consumers))
	for _, c := range rad.Consumers {
		fmt.Fprintf(stdout, "  %s\n", c)
	}
	fmt.Fprintf(stdout, "score: %.1f\n", rad.Score)
	return 0
}

// runWhy implements `configlint why`: the inverse query, artifact → origins.
func runWhy(args []string, stdout, stderr io.Writer) int {
	var root string
	var jsonOut bool
	fs := flag.NewFlagSet("configlint why", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&root, "C", ".", "config tree root")
	fs.BoolVar(&jsonOut, "json", false, "emit the provenance as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: configlint why [flags] <artifact> [field]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fs.Usage()
		return 2
	}
	artifact := fs.Arg(0)
	field := fs.Arg(1)
	rep, ok := analyzeTree(root, stderr)
	if !ok {
		return 2
	}
	if jsonOut {
		prov, err := rep.Provenance(artifact)
		if err != nil {
			fmt.Fprintln(stderr, "configlint:", err)
			return 2
		}
		out := struct {
			Field string `json:"field,omitempty"`
			*dataflow.Provenance
		}{Field: field, Provenance: prov}
		if field != "" {
			origins, err := rep.Why(artifact, field)
			if err != nil {
				fmt.Fprintln(stderr, "configlint:", err)
				return 2
			}
			out.Provenance = &dataflow.Provenance{Artifact: artifact, Origins: origins}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
		return 0
	}
	origins, err := rep.Why(artifact, field)
	if err != nil {
		fmt.Fprintln(stderr, "configlint:", err)
		return 2
	}
	if field != "" {
		fmt.Fprintf(stdout, "%s field %q comes from:\n", artifact, field)
	} else {
		fmt.Fprintf(stdout, "%s comes from:\n", artifact)
	}
	for _, o := range origins {
		fmt.Fprintf(stdout, "  %s\n", o)
	}
	return 0
}

// collectRoots resolves the argument list (files or directories, relative
// to root) into the sorted set of lintable source paths.
func collectRoots(root string, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"."}
	}
	seen := map[string]bool{}
	var roots []string
	add := func(rel string) {
		rel = filepath.ToSlash(rel)
		if !seen[rel] {
			seen[rel] = true
			roots = append(roots, rel)
		}
	}
	for _, arg := range args {
		full := filepath.Join(root, filepath.FromSlash(arg))
		info, err := os.Stat(full)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			add(arg)
			continue
		}
		err = filepath.Walk(full, func(path string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if fi.IsDir() {
				return nil
			}
			if strings.HasSuffix(path, ".cconf") || strings.HasSuffix(path, ".cinc") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				add(rel)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(roots)
	return roots, nil
}

// jsonDiag is the CLI's JSON shape for one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	EndLine  int    `json:"end_line"`
	EndCol   int    `json:"end_col"`
	Severity string `json:"severity"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fix      string `json:"suggested_fix,omitempty"`
}

type jsonReport struct {
	Diagnostics []jsonDiag `json:"diagnostics"`
	Errors      int        `json:"errors"`
	Warnings    int        `json:"warnings"`
	Infos       int        `json:"infos"`
}

func writeJSON(w io.Writer, diags []analysis.Diagnostic) {
	rep := jsonReport{Diagnostics: []jsonDiag{}}
	for _, d := range diags {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiag{
			File: d.Pos.File, Line: d.Pos.Line, Col: d.Pos.Col,
			EndLine: d.End.Line, EndCol: d.End.Col,
			Severity: d.Severity.String(), Analyzer: d.Analyzer,
			Message: d.Message, Fix: d.SuggestedFix,
		})
		switch d.Severity {
		case analysis.Error:
			rep.Errors++
		case analysis.Warn:
			rep.Warnings++
		default:
			rep.Infos++
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
}
