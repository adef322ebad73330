// Command configerator is the one front door to the config-as-code
// toolchain: compile CDL sources to canonical JSON, validate them, list
// dependency edges, and evaluate sitevar expressions — plus operator views
// (trace, status, gk explain) and scripted demos of the paper's tools on a
// simulated fleet: sitevar (§3.2), gk launch (§4), vessel (§3.5), the
// canary stories (§6.4) and a MobileConfig experiment (§5).
// `configerator help` lists every subcommand with its arguments; each one
// marked [-json] is pinned by a golden test of both forms.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"configerator/internal/cdl"
	"configerator/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	root := fs.String("root", ".", "config source tree root")
	asJSON := fs.Bool("json", false, "emit deterministic JSON instead of text (the subcommands marked [-json] in help)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	args := fs.Args()
	// flag stops at the first positional argument; -json is documented
	// after them too (`vessel status -json`, `gk explain SPEC USER -json`).
	if n := len(args); n > 0 && args[n-1] == "-json" {
		args, *asJSON = args[:n-1], true
	}

	switch cmd {
	case "compile", "build", "check":
		if len(args) != 1 {
			fatal("%s requires exactly one FILE.cconf", cmd)
		}
		file := args[0]
		res, err := cdl.NewEngine().Compile(cdl.DirFS(*root), file)
		if err != nil {
			fatal("compile failed: %v", err)
		}
		switch cmd {
		case "compile":
			fmt.Println(string(res.JSON))
		case "build":
			out := filepath.Join(*root, core.ArtifactPath(file))
			if err := os.WriteFile(out, append(res.JSON, '\n'), 0o644); err != nil {
				fatal("writing artifact: %v", err)
			}
			fmt.Printf("wrote %s (%d bytes, schema %s)\n", out, len(res.JSON), orNone(res.SchemaName))
		case "check":
			fmt.Printf("OK: %s compiles (schema %s, %d deps), validators passed\n",
				file, orNone(res.SchemaName), len(res.Deps))
		}
	case "deps":
		if len(args) != 1 {
			fatal("deps requires exactly one FILE")
		}
		direct := must(cdl.ScanImports(args[0], must(cdl.DirFS(*root).ReadFile(args[0]))))
		res, err := cdl.NewEngine().Compile(cdl.DirFS(*root), args[0])
		if err != nil {
			fatal("compile failed: %v", err)
		}
		fmt.Println("direct imports:")
		for _, d := range direct {
			fmt.Println("  " + d)
		}
		fmt.Println("transitive deps:")
		for _, d := range res.Deps {
			fmt.Println("  " + d)
		}
	case "eval":
		if len(args) != 1 {
			fatal("eval requires exactly one EXPR")
		}
		fmt.Println(must(cdl.MarshalJSON(must(cdl.EvalExpr(args[0])))))
	case "trace":
		runTrace(args, *asJSON)
	case "status":
		if len(args) != 0 {
			fatal("status takes no arguments")
		}
		runStatus(*asJSON)
	case "sitevar":
		if len(args) != 0 {
			fatal("sitevar takes no arguments")
		}
		runSitevar(*asJSON)
	case "canary":
		if len(args) != 0 {
			fatal("canary takes no arguments")
		}
		runCanary(*asJSON)
	case "mobile":
		if len(args) != 0 {
			fatal("mobile takes no arguments")
		}
		runMobile(*asJSON)
	case "vessel":
		runVessel(args, *asJSON)
	case "gk":
		runGK(args, *asJSON)
	case "help", "-h", "--help":
		usage()
	default:
		fatal("unknown command %q", cmd)
	}
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

// must exits on err and otherwise returns v.
func must[T any](v T, err error) T {
	if err != nil {
		fatal("%v", err)
	}
	return v
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "configerator: "+format+"\n", args...)
	os.Exit(1)
}

func usage() { fmt.Println(usageText) }

// usageText lists every subcommand, one a line: the command, then two or
// more spaces, then what it does. TestGoldenCoversUsage holds every line
// marked [-json] to a golden of each form.
const usageText = `configerator — config-as-code toolchain

  configerator compile [-root DIR] FILE.cconf     compile to stdout
  configerator build [-root DIR] FILE.cconf       write FILE.json next to the source
  configerator check [-root DIR] FILE.cconf       compile + run validators
  configerator deps [-root DIR] FILE              print import edges
  configerator eval EXPR                          evaluate a sitevar expression
  configerator trace [-json] [COMMIT]             span tree of a change through a demo fleet
  configerator status [-json]                     fleet convergence, stragglers, and SLO alerts
  configerator sitevar [-json]                    set a sitevar through the pipeline: type warning, checker, read-back
  configerator canary [-json]                     the §6.4 canary stories, a revert, then the config retired
  configerator mobile [-json]                     a MobileConfig field as a three-arm experiment, then frozen to a constant
  configerator vessel [-json] publish [NAME [SIZE_MB]]      publish + swarm a package (demo fleet)
  configerator vessel [-json] promote [NAME TAG VERSION]    move a tag through the strip gate
  configerator vessel [-json] status                        registry packages, versions, and tags
  configerator gk explain SPEC.json USER.json [-json]       which rule matched, each restraint's result, the die
  configerator gk launch [-json]                            staged launch through the pipeline, pass share per stage, kill switch`
