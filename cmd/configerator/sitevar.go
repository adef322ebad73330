package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"configerator/internal/cdl"
	"configerator/internal/sitevars"
)

// sitevarStep is one UI update of the sitevar demo.
type sitevarStep struct {
	Expr     string   `json:"expr"`
	Warnings []string `json:"warnings,omitempty"`
	Diff     int      `json:"diff,omitempty"`
	Commit   string   `json:"commit,omitempty"`
	Refused  string   `json:"refused,omitempty"`
	Inferred string   `json:"inferred"` // the schema learned so far
}

// runSitevar plays §3.2 on the demo fleet: a sitevar edited as a UI
// expression lands through the pipeline and the store infers its schema; an
// update that turns a timestamp string into a general one warns but lands;
// once a checker is attached, an update it rejects never reaches review. The
// value is then read back through one server's proxy.
func runSitevar(asJSON bool) {
	const name = "checkout_banner"
	fleet, p := newDemoWorld(2, 7, 2, 4)
	b := sitevars.NewBridge(p)
	path := b.ZeusPath(name)
	fleet.SubscribeAll(path)

	var steps []sitevarStep
	set := func(expr string) {
		st := sitevarStep{Expr: expr}
		if res, err := b.Set(name, expr, "demo", "reviewer"); res == nil {
			st.Refused = err.Error()
		} else if err != nil {
			fatal("%v", err)
		} else {
			st.Warnings, st.Diff, st.Commit = res.Warnings, res.Report.DiffID, landedAs(res.Report)
		}
		sv, _ := b.Store().Get(name)
		fields, _ := sv.Value.(cdl.Map)
		var types []string
		for f := range fields {
			types = append(types, fmt.Sprintf("%s: %s", f, sv.FieldType(f)))
		}
		sort.Strings(types)
		st.Inferred = fmt.Sprintf("%s {%s}", sv.InferredType(), strings.Join(types, ", "))
		steps = append(steps, st)
	}
	set(`{text: "Holiday sale", until: "2015-12-26", max_items: 10}`)
	set(`{text: "Holiday sale", until: "next week", max_items: 10}`)
	b.Store().SetChecker(name, func(v cdl.Value) error {
		m, _ := v.(cdl.Map)
		if n, ok := m["max_items"].(cdl.Int); !ok || n < 0 {
			return errors.New("max_items must be a nonnegative int")
		}
		return nil
	})
	set(`{text: "Holiday sale", until: "next week", max_items: -1}`)

	srv := fleet.AllServers()[0]
	v := must(srv.Client.Get(context.Background(), path))
	if asJSON {
		printJSON(map[string]interface{}{"sitevar": name, "zeus_path": path, "steps": steps,
			"read_back": map[string]interface{}{"server": srv.ID, "version": v.Version, "source": v.Source,
				"text": v.String("text", ""), "until": v.String("until", ""), "max_items": v.Int("max_items", -1)}})
		return
	}
	fmt.Printf("sitevar %s, distributed at %s\n", name, path)
	for _, st := range steps {
		fmt.Printf("set %s\n", st.Expr)
		for _, warn := range st.Warnings {
			fmt.Printf("  warning: %s\n", warn)
		}
		if st.Refused != "" {
			fmt.Printf("  refused: %s\n", st.Refused)
		} else {
			fmt.Printf("  landed: diff %d, commit %s\n", st.Diff, st.Commit)
		}
		fmt.Printf("  inferred: %s\n", st.Inferred)
	}
	fmt.Printf("read back on %s (version %d, %s): text %q, until %q, max_items %d\n", srv.ID, v.Version,
		v.Source, v.String("text", ""), v.String("until", ""), v.Int("max_items", -1))
}
