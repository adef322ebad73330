package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
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

// TestGolden pins what the demo-fleet subcommands print, text and -json:
// every number in them is a function of the demo seeds.
func TestGolden(t *testing.T) {
	for _, sub := range []string{"vessel publish", "vessel promote", "vessel status", "status", "trace", "sitevar", "gk launch"} {
		for _, args := range []string{sub, sub + " -json"} {
			t.Run(args, func(t *testing.T) {
				cmd := exec.Command(os.Args[0])
				cmd.Env = append(os.Environ(), argsEnv+"="+args)
				got, err := cmd.Output()
				golden := filepath.Join("testdata", strings.ReplaceAll(args, " ", "_")+".golden")
				if err == nil && *update {
					err = os.WriteFile(golden, got, 0o644)
				}
				if err != nil {
					t.Fatalf("configerator %s: %v", args, err)
				}
				if want, _ := os.ReadFile(golden); string(got) != string(want) {
					t.Errorf("configerator %s differs from %s (run with -update to rewrite):\n--- got\n%s--- want\n%s",
						args, golden, got, want)
				}
			})
		}
	}
}
