package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain runs main instead of the tests when argsEnv holds the command's
// space-separated arguments, so the golden test drives the command itself:
// flag parsing, stdout and exit status.
const argsEnv = "CONFIGERATOR_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(argsEnv); args != "" {
		os.Args = append([]string{"configerator"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenCase runs `configerator args` and compares what it prints with
// testdata/name.golden. A case that fails must exit 1; its golden holds
// stdout, then stderr.
type goldenCase struct {
	name, args string
	fails      bool
}

// goldenCases: every demo subcommand in text and -json (every number in
// them is a function of the demo seeds), the compiler over examples/configs,
// and gk explain over the gatekeeper's sample files.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, sub := range []string{"vessel publish", "vessel promote", "vessel status", "status", "trace",
		"sitevar", "gk launch", "canary", "mobile"} {
		for _, args := range []string{sub, sub + " -json"} {
			cases = append(cases, goldenCase{name: strings.ReplaceAll(args, " ", "_"), args: args})
		}
	}
	const configs, explain = " -root ../../examples/configs memcache/", " ../../internal/gatekeeper/testdata/explain/"
	return append(cases,
		goldenCase{name: "compile_frontend", args: "compile" + configs + "frontend.cconf"},
		goldenCase{name: "compile_firewall", args: "compile" + configs + "firewall.cconf"},
		goldenCase{name: "check_frontend", args: "check" + configs + "frontend.cconf"},
		goldenCase{name: "deps_frontend", args: "deps" + configs + "frontend.cconf"},
		goldenCase{name: "deps_missing_import", args: "deps -root testdata/configs broken.cconf", fails: true},
		goldenCase{name: "eval", args: `eval {port:11211,pools:["feed","ads"],hot:1<2}`},
		goldenCase{name: "gk_explain", args: "gk explain" + explain + "spec.json" + explain + "user.json"},
		goldenCase{name: "gk_explain_-json", args: "gk explain" + explain + "spec.json" + explain + "user.json -json"},
	)
}

// TestGolden pins what each golden case prints and how it exits.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), argsEnv+"="+c.args)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if c.fails && errors.As(err, &exit) && exit.ExitCode() == 1 {
				err = nil
				stdout.Write(stderr.Bytes())
			} else if c.fails && err == nil {
				err = errors.New("exit status 0, want 1")
			}
			if err != nil {
				t.Fatalf("configerator %s: %v\n%s", c.args, err, stderr.Bytes())
			}
			got, golden := stdout.Bytes(), filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if want, _ := os.ReadFile(golden); string(got) != string(want) {
				t.Errorf("configerator %s differs from %s (run with -update to rewrite):\n--- got\n%s--- want\n%s",
					c.args, golden, got, want)
			}
		})
	}
}

// TestGoldenCoversUsage refuses drift between usage and the golden list:
// a usage line marked [-json] needs a case of each form, and every
// testdata/*.golden must belong to a case.
func TestGoldenCoversUsage(t *testing.T) {
	cases := goldenCases()
	word := regexp.MustCompile(`^[a-z]+$`)
	for _, line := range strings.Split(usageText, "\n") {
		command, _, _ := strings.Cut(strings.TrimSpace(line), "  ")
		if !strings.Contains(command, "[-json]") {
			continue
		}
		var sub []string // the subcommand words, without flags or arguments
		for _, f := range strings.Fields(command)[1:] {
			if word.MatchString(f) {
				sub = append(sub, f)
			}
		}
		text, asJSON := false, false
		for _, c := range cases {
			if runs(c.args, sub) {
				j := strings.HasSuffix(c.args, " -json")
				text, asJSON = text || !j, asJSON || j
			}
		}
		if !text || !asJSON {
			t.Errorf("usage line %q: golden in text %v, in -json %v; want both", command, text, asJSON)
		}
	}

	named := make(map[string]bool)
	for _, c := range cases {
		named[filepath.Join("testdata", c.name+".golden")] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no goldens found: %v", err)
	}
	for _, f := range files {
		if !named[f] {
			t.Errorf("%s belongs to no golden case", f)
		}
	}
}

// runs reports whether args invoke the subcommand sub: its words come
// first.
func runs(args string, sub []string) bool {
	fields := strings.Fields(args)
	return len(fields) >= len(sub) && strings.Join(fields[:len(sub)], " ") == strings.Join(sub, " ")
}
