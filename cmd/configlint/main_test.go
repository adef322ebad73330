package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a config tree under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestCLIExitCodes(t *testing.T) {
	root := writeTree(t, map[string]string{
		"clean/app.cconf": `export {a: 1};`,
		"dirty/app.cconf": "let on = false;\nif (on) {\n\tlet x = nope;\n}\nexport {on: on};\n",
		"warn/app.cconf":  "import \"warn/lib.cinc\";\nexport {a: 1};\n",
		"warn/lib.cinc":   "let UNUSED = 1;\n",
	})
	var out, errb bytes.Buffer

	// Clean subtree: exit 0, no output.
	if code := run([]string{"-C", root, "clean"}, &out, &errb); code != 0 {
		t.Fatalf("clean: exit %d, stderr %s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean: unexpected output %q", out.String())
	}

	// Error diagnostic: exit 1 under the default threshold.
	out.Reset()
	if code := run([]string{"-C", root, "dirty"}, &out, &errb); code != 1 {
		t.Fatalf("dirty: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "undefined reference to \"nope\"") {
		t.Fatalf("dirty output missing diagnostic:\n%s", out.String())
	}

	// Warnings pass the default (error) threshold — and are filtered from
	// the display too, so output and exit code always agree.
	out.Reset()
	if code := run([]string{"-C", root, "warn"}, &out, &errb); code != 0 {
		t.Fatalf("warn at error threshold: exit %d, want 0", code)
	}
	if out.Len() != 0 {
		t.Fatalf("below-threshold warnings must not print:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-C", root, "-severity", "warn", "warn"}, &out, &errb); code != 1 {
		t.Fatalf("warn at warn threshold: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "unused-import") {
		t.Fatalf("at-threshold warnings should print:\n%s", out.String())
	}

	// Bad flag: exit 2.
	if code := run([]string{"-severity", "loud"}, &out, &errb); code != 2 {
		t.Fatalf("bad severity: exit %d, want 2", code)
	}
	// Missing path: exit 2.
	if code := run([]string{"-C", root, "no-such-dir"}, &out, &errb); code != 2 {
		t.Fatalf("missing path: exit %d, want 2", code)
	}
}

func TestCLIJSONOutput(t *testing.T) {
	root := writeTree(t, map[string]string{
		"app.cconf": "let on = false;\nif (on) {\n\tlet x = nope;\n}\nexport {on: on};\n",
	})
	var out, errb bytes.Buffer
	code := run([]string{"-C", root, "-json"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %s)", code, errb.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Errors == 0 || len(rep.Diagnostics) == 0 {
		t.Fatalf("JSON report missing findings: %+v", rep)
	}
	d := rep.Diagnostics[0]
	if d.File != "app.cconf" || d.Line == 0 || d.Col == 0 || d.Severity == "" || d.Analyzer == "" {
		t.Fatalf("incomplete diagnostic: %+v", d)
	}
}

// TestCLISeverityFiltersJSON: -severity filters the JSON diagnostics
// identically to text — a warn-only tree yields an empty report (and exit
// 0) at the error threshold, and the full report at warn.
func TestCLISeverityFiltersJSON(t *testing.T) {
	root := writeTree(t, map[string]string{
		"app.cconf": "import \"lib.cinc\";\nexport {a: 1};\n",
		"lib.cinc":  "let UNUSED = 1;\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", root, "-json"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %s)", code, errb.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(rep.Diagnostics) != 0 || rep.Warnings != 0 {
		t.Fatalf("error-threshold JSON should filter warnings: %+v", rep)
	}

	out.Reset()
	if code := run([]string{"-C", root, "-json", "-severity", "warn"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	rep = jsonReport{}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if rep.Warnings == 0 || len(rep.Diagnostics) == 0 {
		t.Fatalf("warn-threshold JSON missing the warning: %+v", rep)
	}
	if rep.Diagnostics[0].Analyzer != "unused-import" {
		t.Fatalf("diagnostic = %+v", rep.Diagnostics[0])
	}
}

func TestCLIDeprecatedSitevarFlag(t *testing.T) {
	root := writeTree(t, map[string]string{
		"app.cconf":              "import \"sitevars/old_flag.cinc\";\nexport {v: OLD};\n",
		"sitevars/old_flag.cinc": "let OLD = 1;\n",
	})
	var out, errb bytes.Buffer
	code := run([]string{"-C", root, "-severity", "warn", "-deprecated", "old_flag=use new_flag", "app.cconf"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (out %s, stderr %s)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "deprecated: use new_flag") {
		t.Fatalf("missing deprecation note:\n%s", out.String())
	}
}

// blastTree is the dataflow fixture: one sitevar template feeding a shared
// library feeding two artifacts.
func blastTree(t *testing.T) string {
	t.Helper()
	return writeTree(t, map[string]string{
		"sitevars/ratelimit.cinc": "let RATELIMIT = 100;\n",
		"lib/limits.cinc":         "import \"sitevars/ratelimit.cinc\";\nlet LIMIT = RATELIMIT * 2;\n",
		"svc/api.cconf":           "import \"lib/limits.cinc\";\nexport {limit: LIMIT};\n",
		"svc/web.cconf":           "import \"lib/limits.cinc\";\nexport {limit: LIMIT};\n",
	})
}

// TestCLIBlastGolden: a single-sitevar edit reports the exact downstream
// set — byte-for-byte.
func TestCLIBlastGolden(t *testing.T) {
	root := blastTree(t)
	var out, errb bytes.Buffer
	if code := run([]string{"blast", "-C", root, "sitevars/ratelimit.cinc"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	want := `changed: sitevars/ratelimit.cinc
artifacts (2):
  svc/api.cconf
  svc/web.cconf
consumers (1):
  lib/limits.cinc:1:8: sitevar "ratelimit"
score: 4.0
`
	if out.String() != want {
		t.Fatalf("blast output:\n%s\nwant:\n%s", out.String(), want)
	}

	// The token form reaches the same set, and -json carries it all.
	out.Reset()
	if code := run([]string{"blast", "-json", "-C", root, "sitevar:ratelimit"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	var rad struct {
		Artifacts []string `json:"artifacts"`
		Consumers []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"consumers"`
		Score float64 `json:"score"`
	}
	if err := json.Unmarshal(out.Bytes(), &rad); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if strings.Join(rad.Artifacts, ",") != "svc/api.cconf,svc/web.cconf" {
		t.Fatalf("JSON artifacts = %v", rad.Artifacts)
	}
	if len(rad.Consumers) != 1 || rad.Consumers[0].Name != "ratelimit" || rad.Score != 4 {
		t.Fatalf("JSON radius = %+v", rad)
	}
}

// TestCLIWhy: the inverse query traces a field to the sitevar and every
// module on the dataflow path.
func TestCLIWhy(t *testing.T) {
	root := blastTree(t)
	var out, errb bytes.Buffer
	if code := run([]string{"why", "-C", root, "svc/api.cconf", "limit"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	for _, want := range []string{
		`svc/api.cconf field "limit" comes from:`,
		`sitevar "ratelimit" (sitevars/ratelimit.cinc:1:1)`,
		"module lib/limits.cinc",
		"module svc/api.cconf",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("why output missing %q:\n%s", want, out.String())
		}
	}

	// Unknown field: exit 2 with the error on stderr.
	out.Reset()
	errb.Reset()
	if code := run([]string{"why", "-C", root, "svc/api.cconf", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown field: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "nope") {
		t.Fatalf("stderr should name the field: %s", errb.String())
	}

	// Missing args: exit 2.
	if code := run([]string{"why", "-C", root}, &out, &errb); code != 2 {
		t.Fatalf("missing artifact: exit %d, want 2", code)
	}
	if code := run([]string{"blast", "-C", root}, &out, &errb); code != 2 {
		t.Fatalf("blast with no changed paths: exit %d, want 2", code)
	}
}

func TestCLIOnExamples(t *testing.T) {
	examples := filepath.Join("..", "..", "examples", "configs")
	if _, err := os.Stat(examples); err != nil {
		t.Skip("examples not present")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-C", examples, "-severity", "info"}, &out, &errb); code != 0 {
		t.Fatalf("examples lint dirty (exit %d):\n%s%s", code, out.String(), errb.String())
	}
}

// TestCLIImportConfinedToRoot: an import that climbs out of -C's tree with
// ".." is looked up inside the tree, so a file beside the tree is not read and
// the import fails like any other missing one.
func TestCLIImportConfinedToRoot(t *testing.T) {
	outer := writeTree(t, map[string]string{
		"outside.cinc":       "let SECRET = 1;\n",
		"tree/app/app.cconf": "import \"../../outside.cinc\";\nexport {a: SECRET};\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", filepath.Join(outer, "tree", "app")}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stdout %s stderr %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), `cannot load import "../../outside.cinc"`) {
		t.Fatalf("output lacks the missing-import diagnostic:\n%s", out.String())
	}
}
