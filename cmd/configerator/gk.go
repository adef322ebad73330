package main

import (
	"fmt"
	"os"

	"configerator/internal/gatekeeper"
)

// runGK answers "why did this user pass this gate?": it compiles the
// project config, runs one check of the user through the program Check
// runs, and prints the trace. A laser() restraint has no store here and
// evaluates false.
func runGK(args []string, asJSON bool) {
	if len(args) != 3 || args[0] != "explain" {
		fatal("usage: configerator gk explain SPEC.json USER.json [-json]")
	}
	specData, err := os.ReadFile(args[1])
	if err != nil {
		fatal("%v", err)
	}
	userData, err := os.ReadFile(args[2])
	if err != nil {
		fatal("%v", err)
	}
	spec, err := gatekeeper.ParseProjectSpec(specData)
	if err != nil {
		fatal("%v", err)
	}
	project, err := gatekeeper.Compile(spec, gatekeeper.NewRegistry(nil))
	if err != nil {
		fatal("%v", err)
	}
	user, err := gatekeeper.ParseUser(userData)
	if err != nil {
		fatal("%v", err)
	}
	ex := project.Explain(user)
	if asJSON {
		fmt.Println(ex.JSON())
		return
	}
	fmt.Print(ex.Text())
}
