package gatekeeper

import (
	"context"
	"maps"
	"sync"
	"sync/atomic"

	"configerator/internal/confclient"
)

// Runtime is the Gatekeeper runtime embedded in a product server (the
// paper's HHVM extension): it holds the compiled projects, re-compiles a
// project whenever its config changes, and serves gk_check calls. Check is
// safe from any number of goroutines while Load runs: the project table is
// an immutable map behind an atomic pointer, replaced copy-on-write.
type Runtime struct {
	registry *Registry
	projects atomic.Pointer[map[string]*Project]
	loading  sync.Mutex // one Load at a time

	// Recompiles counts live project config swaps. Load writes it; read
	// it from the goroutine that loads, or once loading has stopped.
	Recompiles uint64
}

// NewRuntime returns an empty runtime over the registry.
func NewRuntime(reg *Registry) *Runtime {
	r := &Runtime{registry: reg}
	r.projects.Store(&map[string]*Project{})
	return r
}

// Load installs (or replaces) a project from its config artifact. Called
// live when a config update arrives — no code upgrade. All the work that
// depends only on the config happens here, once; the project's counters
// start again from zero.
func (r *Runtime) Load(data []byte) error {
	spec, err := ParseProjectSpec(data)
	if err != nil {
		return err
	}
	p, err := Compile(spec, r.registry)
	if err != nil {
		return err
	}
	r.loading.Lock()
	defer r.loading.Unlock()
	next := maps.Clone(*r.projects.Load())
	next[p.Name] = p
	r.projects.Store(&next)
	r.Recompiles++
	return nil
}

// Check is gk_check($project, $user): false for unknown projects (a
// product must fail closed when its gate config has not arrived).
func (r *Runtime) Check(project string, u *User) bool {
	p := (*r.projects.Load())[project]
	return p != nil && p.Check(u)
}

// Project returns a loaded project (nil if absent).
func (r *Runtime) Project(name string) *Project { return (*r.projects.Load())[name] }

// Bind watches a project's config path so that config updates rebuild
// the boolean tree live (bottom of Figure 3: the new config is delivered
// to production servers and the Gatekeeper runtime reads it). The watch
// ends when ctx is cancelled.
func (r *Runtime) Bind(ctx context.Context, client *confclient.Client, path string) {
	client.Watch(ctx, path, func(cfg *confclient.Value) {
		// A malformed artifact is ignored; the previous tree keeps
		// serving (availability over freshness).
		_ = r.Load(cfg.Raw)
	})
}

// RolloutStages builds the spec sequence for a typical staged launch
// (§4): employees 1%→10%→100%, then a regional slice, then global
// 1%→10%→100%. Each stage is one config update.
func RolloutStages(project, region string) []*ProjectSpec {
	employee := func(p float64) RuleSpec {
		return RuleSpec{
			Restraints:      []RestraintSpec{{Name: "employee"}},
			PassProbability: p,
		}
	}
	regional := func(p float64) RuleSpec {
		return RuleSpec{
			Restraints:      []RestraintSpec{{Name: "region", Params: Params{"in": []string{region}}}},
			PassProbability: p,
		}
	}
	global := func(p float64) RuleSpec {
		return RuleSpec{
			Restraints:      []RestraintSpec{{Name: "always"}},
			PassProbability: p,
		}
	}
	mk := func(rules ...RuleSpec) *ProjectSpec {
		return &ProjectSpec{Project: project, Rules: rules}
	}
	return []*ProjectSpec{
		mk(employee(0.01)),
		mk(employee(0.10)),
		mk(employee(1.0)),
		mk(employee(1.0), regional(0.05)),
		mk(employee(1.0), regional(0.05), global(0.01)),
		mk(employee(1.0), regional(0.05), global(0.10)),
		mk(global(1.0)),
	}
}
