package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden")

// argsEnv holds the command's space-separated arguments when the test binary
// is to run main instead of the tests, so the golden test drives the command
// itself: flag parsing, stdout and exit status.
const argsEnv = "BENCHREPORT_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(argsEnv); args != "" {
		os.Args = append([]string{"benchreport"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the quick-size report byte for byte: every experiment is a
// function of its seed, so any line that moves between runs or machines is
// either a behaviour change (rerun with -update and review the diff) or
// nondeterminism in an experiment.
func TestGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"=-quick -o -")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("benchreport -quick -o -: %v\n%s", err, stderr.Bytes())
	}
	golden := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("benchreport -quick -o - differs from %s from line %d (rerun with -update if the change is intended):\n%s",
				golden, i+1, strings.Join(got[i:min(i+5, len(got))], "\n"))
		}
	}
}
