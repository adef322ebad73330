package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"configerator/internal/gatekeeper"
	"configerator/internal/proxy"
	"configerator/internal/stats"
	"configerator/internal/zeus"
)

// gate_check: the Gatekeeper runtime only. One goroutine calls Runtime.Check
// over projects with the Figure 5 restraint mix and seeded users, with a
// Runtime.Load of the next rollout stage of one project every few hundred
// thousand checks (the layer's write side at a production-like ratio). The
// timed loop touches no proxy, Zeus or simulator. It is a closed loop with
// one client.

type gateSizes struct {
	projects, users        int
	checksPerTenSecond     int // a run is readTrials trials of a 1/readTrials share each
	checksPerLoad          int
	bindRoundsPerTenSecond int // rollouts pushed through Runtime.Bind for sim_latency
}

func gateSizesFor(cfg config) gateSizes {
	if cfg.tiny {
		return gateSizes{projects: 10, users: 64, checksPerTenSecond: 56_000, checksPerLoad: 1_000, bindRoundsPerTenSecond: 2}
	}
	return gateSizes{projects: 100, users: 4096, checksPerTenSecond: 23_800_000, checksPerLoad: 500_000, bindRoundsPerTenSecond: 30}
}

// figure5Project is the restraint mix real gates use: employees; a country,
// app-version and friend-count conjunction at 10 %; a platform rule at 1 %.
func figure5Project(name string) *gatekeeper.ProjectSpec {
	return &gatekeeper.ProjectSpec{Project: name, Rules: []gatekeeper.RuleSpec{
		{Restraints: []gatekeeper.RestraintSpec{{Name: "employee"}}, PassProbability: 1.0},
		{Restraints: []gatekeeper.RestraintSpec{
			{Name: "country", Params: gatekeeper.Params{"in": []string{"US", "CA", "GB"}}},
			{Name: "app_version_at_least", Params: gatekeeper.Params{"version": 100.0}},
			{Name: "friend_count_at_least", Params: gatekeeper.Params{"n": 10.0}},
		}, PassProbability: 0.10},
		{Restraints: []gatekeeper.RestraintSpec{
			{Name: "platform", Params: gatekeeper.Params{"in": []string{"ios", "android"}}},
		}, PassProbability: 0.01},
	}}
}

const (
	launchProject = "Launch"
	launchRegion  = "rUS"
	launchPath    = "/gatekeeper/launch.json"
)

func seededUser(rng *stats.RNG, id int64) *gatekeeper.User {
	countries := []string{"US", "BR", "IN", "GB", "JP", "DE"}
	platforms := []string{"www", "ios", "android"}
	return &gatekeeper.User{
		ID:          id,
		Employee:    rng.Bool(0.001),
		Country:     countries[rng.Intn(len(countries))],
		Region:      "r" + countries[rng.Intn(len(countries))],
		Platform:    platforms[rng.Intn(len(platforms))],
		App:         "fb4a",
		AppVersion:  90 + rng.Intn(40),
		FriendCount: rng.Intn(500),
	}
}

// The oracle: what each check must return, computed by the benchmark's own
// reading of the specs. It shares only the sampling hash with the product.

func sampled(project string, id int64, p float64) bool {
	return p >= 1 || (p > 0 && stats.HashFloat(fmt.Sprintf("%s:%d", project, id)) < p)
}

func figure5Passes(project string, u *gatekeeper.User) bool {
	switch {
	case u.Employee:
		return true
	case (u.Country == "US" || u.Country == "CA" || u.Country == "GB") && u.AppVersion >= 100 && u.FriendCount >= 10:
		return sampled(project, u.ID, 0.10)
	case u.Platform == "ios" || u.Platform == "android":
		return sampled(project, u.ID, 0.01)
	}
	return false
}

// launchPasses evaluates a RolloutStages spec, whose rules use the employee,
// region and always restraints.
func launchPasses(spec *gatekeeper.ProjectSpec, u *gatekeeper.User) bool {
	for _, rule := range spec.Rules {
		matched := true
		for _, rs := range rule.Restraints {
			switch rs.Name {
			case "employee":
				matched = matched && u.Employee
			case "region":
				matched = matched && u.Region == launchRegion
			}
		}
		if matched {
			return sampled(spec.Project, u.ID, rule.PassProbability)
		}
	}
	return false
}

// gateRig is a loaded runtime and the schedule of checks.
type gateRig struct {
	sz     gateSizes
	rt     *gatekeeper.Runtime
	names  []string // project of check i is names[i % len(names)]; the last is the launch
	users  []*gatekeeper.User
	stages [][]byte // encoded rollout stages of the launch project
	// expect[p][u] for the Figure 5 projects; launchExpect[stage][u].
	expect       [][]bool
	launchExpect [][]bool
	stage        int // rollout stage currently loaded
	checks       int // checks done, across trials
	stride       int // user of check i is users[(i*stride) % len(users)]
}

func newGateRig(cfg config) (*gateRig, error) {
	sz := gateSizesFor(cfg)
	r := &gateRig{sz: sz, rt: gatekeeper.NewRuntime(gatekeeper.NewRegistry(nil))}
	rng := stats.NewRNG(cfg.seed)
	for u := 0; u < sz.users; u++ {
		r.users = append(r.users, seededUser(rng, int64(u)))
	}
	r.stride = 2*rng.Intn(sz.users/2) + 1 // odd, so it visits every user
	for p := 0; p < sz.projects; p++ {
		name := fmt.Sprintf("Proj%d", p)
		if err := r.rt.Load(figure5Project(name).Encode()); err != nil {
			return nil, err
		}
		row := make([]bool, sz.users)
		for u, user := range r.users {
			row[u] = figure5Passes(name, user)
		}
		r.names = append(r.names, name)
		r.expect = append(r.expect, row)
	}
	r.names = append(r.names, launchProject)
	for _, spec := range gatekeeper.RolloutStages(launchProject, launchRegion) {
		row := make([]bool, sz.users)
		for u, user := range r.users {
			row[u] = launchPasses(spec, user)
		}
		r.stages = append(r.stages, spec.Encode())
		r.launchExpect = append(r.launchExpect, row)
	}
	return r, r.rt.Load(r.stages[0])
}

// trial runs count checks as one block, loading the next rollout stage every
// checksPerLoad, and counts the checks whose answer differs from the
// oracle's.
func (r *gateRig) trial(o *outcome, tr *tracer, t, count int) {
	per := count / trialBatches
	nProj, nUsers := len(r.names), len(r.users)
	id := tr.begin("gatekeeper.Check", t)
	batchMs := make([]float64, 0, trialBatches)
	start := time.Now()
	for b := 0; b < trialBatches; b++ {
		wrong := 0
		t0 := time.Now()
		for i := 0; i < per; i++ {
			n := r.checks
			r.checks++
			if n%r.sz.checksPerLoad == 0 && n > 0 {
				r.stage = (r.stage + 1) % len(r.stages)
				lid := tr.begin("gatekeeper.Load", t)
				err := r.rt.Load(r.stages[r.stage])
				tr.end(lid)
				if err != nil {
					wrong++
				}
			}
			p, u := n%nProj, (n*r.stride)%nUsers
			want := false
			if p == nProj-1 {
				want = r.launchExpect[r.stage][u]
			} else {
				want = r.expect[p][u]
			}
			if r.rt.Check(r.names[p], r.users[u]) != want {
				wrong++
			}
		}
		batchMs = append(batchMs, float64(time.Since(t0))/1e6/float64(per))
		o.failed += wrong
		o.ops += per - wrong
	}
	d := time.Since(start)
	tr.end(id)
	o.blocks = append(o.blocks, block{opsPerS: float64(per*trialBatches) / d.Seconds(), opMs: batchMs})
}

// bindLatency measures what the timed loop cannot: how long after a rollout
// stage is written to Zeus the runtime serves it. The runtime is bound to
// the launch project's config path on a one-server stack, each stage is
// written in turn, and the simulated clock runs until Runtime.Recompiles
// moves. It runs after the timed trials, outside the root span.
func (r *gateRig) bindLatency(cfg config) (simS []float64, err error) {
	stack := newServerStack(cfg.seed, nil)
	stack.write(launchPath, r.stages[r.stage], nil)
	stack.net.RunFor(5 * time.Second)
	r.rt.Bind(context.Background(), stack.cl, launchPath)
	// Subscribed after Bind, so it fires right after the runtime's own
	// callback, at the same simulated instant.
	var reloaded time.Time
	stack.px.Subscribe(launchPath, func(proxy.Entry) { reloaded = stack.net.Now() })
	stack.net.RunFor(5 * time.Second)
	for round := 0; round < cfg.ops(r.sz.bindRoundsPerTenSecond); round++ {
		for range r.stages {
			r.stage = (r.stage + 1) % len(r.stages)
			before, issued := r.rt.Recompiles, stack.net.Now()
			stack.write(launchPath, r.stages[r.stage], func(zeus.WriteResult) {})
			for i := 0; i < 100 && r.rt.Recompiles == before; i++ {
				stack.net.RunFor(100 * time.Millisecond)
			}
			if r.rt.Recompiles == before {
				return nil, fmt.Errorf("rollout stage %d never reached the runtime", r.stage)
			}
			simS = append(simS, reloaded.Sub(issued).Seconds())
		}
	}
	return simS, nil
}

func (r *gateRig) run(cfg config, tr *tracer) (o outcome) {
	count := cfg.ops(r.sz.checksPerTenSecond) / readTrials
	start := time.Now()
	for t := 0; t < readTrials; t++ {
		r.trial(&o, tr, t, count)
	}
	o.wall = time.Since(start)
	if o.failed > 0 {
		o.checkErr = fmt.Errorf("%d checks disagree with the oracle", o.failed)
	}
	var passes uint64
	for _, name := range r.names {
		passes += r.rt.Project(name).PassCount
	}
	o.fingerprint = fmt.Sprintf("passes=%d", passes) // the launch project's count restarts at each Load
	return o
}

func gateCheck(cfg config) outcome {
	var buildErr error
	rig, setupS := repeatSetup(func() *gateRig {
		r, err := newGateRig(cfg)
		if err != nil {
			buildErr = err
		}
		return r
	})
	if buildErr != nil {
		return outcome{checkErr: buildErr, setupS: setupS}
	}
	o := rig.run(cfg, nil)
	o.setupS = setupS
	simS, err := rig.bindLatency(cfg)
	if err != nil && o.checkErr == nil {
		o.checkErr = err
	}
	o.simS = simS
	return o
}

func gateCheckTraced(cfg config, tr *tracer) outcome {
	rig, err := newGateRig(cfg)
	if err != nil {
		return outcome{checkErr: err}
	}
	evals := func() (n uint64) {
		for _, name := range rig.names[:len(rig.names)-1] { // the launch project is replaced by each Load
			n += rig.rt.Project(name).RestraintEvals()
		}
		return n
	}
	evals0 := evals()
	root := tr.begin("bench.gate_check", 0)
	o := rig.run(cfg, tr)
	tr.end(root)
	o.rootSpan = "bench.gate_check"
	static := float64(o.ops - o.ops/len(rig.names)) // check n goes to the launch project when n % len(names) is the last index
	var passes uint64
	for _, name := range rig.names[:len(rig.names)-1] {
		passes += rig.rt.Project(name).PassCount
	}
	loads := tr.byName()["gatekeeper.Load"]
	// One pass over every (project, user) pair with no Load, for an exact
	// allocation count per check.
	batch := len(rig.names) * len(rig.users)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < batch; i++ {
			rig.rt.Check(rig.names[i%len(rig.names)], rig.users[i/len(rig.names)])
		}
	})
	o.perLayer = map[string]float64{
		"gatekeeper.check_ns":                  1e9 / o.opsPerS(),
		"gatekeeper.allocs_per_check":          allocs / float64(batch),
		"gatekeeper.restraint_evals_per_check": float64(evals()-evals0) / static,
		"gatekeeper.pass_frac":                 float64(passes) / static,
		"gatekeeper.load_us":                   float64(loads.total) / 1e3 / float64(loads.calls),
		"bench.traced_ops_per_s":               o.opsPerS(),
	}
	return o
}
