package experiments

import (
	"fmt"
	"time"

	"configerator/internal/gatekeeper"
	"configerator/internal/laser"
	"configerator/internal/mobileconfig"
	"configerator/internal/simnet"
	"configerator/internal/stats"
	"configerator/internal/vclock"
)

// realisticProject builds a project with the mixed restraint shapes real
// gates use (Figure 5).
func realisticProject(name string) *gatekeeper.ProjectSpec {
	return &gatekeeper.ProjectSpec{Project: name, Rules: []gatekeeper.RuleSpec{
		{
			Restraints: []gatekeeper.RestraintSpec{
				{Name: "employee"},
			},
			PassProbability: 1.0,
		},
		{
			Restraints: []gatekeeper.RestraintSpec{
				{Name: "country", Params: gatekeeper.Params{"in": []string{"US", "CA", "GB"}}},
				{Name: "app_version_at_least", Params: gatekeeper.Params{"version": 100.0}},
				{Name: "friend_count_at_least", Params: gatekeeper.Params{"n": 10.0}},
			},
			PassProbability: 0.10,
		},
		{
			Restraints: []gatekeeper.RestraintSpec{
				{Name: "platform", Params: gatekeeper.Params{"in": []string{"ios", "android"}}},
			},
			PassProbability: 0.01,
		},
	}}
}

func sampleUser(rng *stats.RNG, id int64) *gatekeeper.User {
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
		AccountAge:  time.Duration(rng.Intn(2000)) * 24 * time.Hour,
		Now:         vclock.Epoch,
	}
}

// Fig15GatekeeperChecks reproduces Figure 15: Gatekeeper check throughput.
// The paper reports billions of checks per second site-wide across
// hundreds of thousands of frontend servers with a diurnal pattern; we
// run the Figure 5 restraint mix through this runtime for its pass rate and
// scale-model the site-wide series from the traffic profile. Check speed is
// the benchmark's (gate_check).
func Fig15GatekeeperChecks(opts Options) Result {
	r := Result{ID: "fig15", Title: "Gatekeeper check throughput"}
	reg := gatekeeper.NewRegistry(nil)
	rt := gatekeeper.NewRuntime(reg)
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("Proj%d", i)
		if err := rt.Load(realisticProject(names[i]).Encode()); err != nil {
			panic(err)
		}
	}
	rng := stats.NewRNG(opts.Seed)
	users := make([]*gatekeeper.User, 4096)
	for i := range users {
		users[i] = sampleUser(rng, int64(i))
	}
	n := 2_000_000
	if opts.Quick {
		n = 200_000
	}
	passes := 0
	for i := 0; i < n; i++ {
		if rt.Check(names[i%len(names)], users[i%len(users)]) {
			passes++
		}
	}

	// Site-wide scale model: 300k frontend servers, each handling ~1500
	// requests/s at peak with ~4 gate checks per request, modulated by
	// the diurnal traffic profile. (§6.3 notes data-intensive restraints
	// make the real aggregate CPU cost significant.)
	const servers = 300_000
	const peakChecksPerServer = 6_000
	var series stats.Series
	series.Name = "site-wide checks/s (billions)"
	for h := 0; h < 7*24; h++ {
		traffic := 0.55 + 0.45*diurnalTraffic(h%24)
		series.Add(float64(h), servers*peakChecksPerServer*traffic/1e9)
	}
	r.Text = fmt.Sprintf("%d checks, pass rate %.1f%%\n%s\n", n, 100*float64(passes)/float64(n), series.Sparkline(84))
	r.metric("pass_rate", float64(passes)/float64(n), 0, false)
	r.metric("sitewide_peak_billion_per_sec", series.MaxY(), 1.0, true)
	return r
}

func diurnalTraffic(hour int) float64 {
	switch {
	case hour >= 9 && hour < 22:
		return 1.0
	case hour >= 6 && hour < 9:
		return 0.6
	default:
		return 0.25
	}
}

// AblationGatekeeperOptimizer measures the cost-based boolean-tree
// optimization (§4): reordering a conjunction so a cheap, selective
// restraint runs before an expensive laser() lookup.
func AblationGatekeeperOptimizer(opts Options) Result {
	r := Result{ID: "ablation-gk-optimizer", Title: "Gatekeeper cost-based restraint reordering"}
	build := func(optimize bool) *gatekeeper.Project {
		ls := laser.NewStore()
		for id := int64(0); id < 10_000; id++ {
			ls.Set("Heavy", id, 1.0)
		}
		reg := gatekeeper.NewRegistry(ls)
		spec := &gatekeeper.ProjectSpec{Project: "Heavy", Rules: []gatekeeper.RuleSpec{{
			Restraints: []gatekeeper.RestraintSpec{
				{Name: "laser", Params: gatekeeper.Params{"project": "Heavy", "threshold": 0.5}},
				{Name: "country", Params: gatekeeper.Params{"in": []string{"IS"}}},
			},
			PassProbability: 1.0,
		}}}
		p, err := gatekeeper.Compile(spec, reg)
		if err != nil {
			panic(err)
		}
		if optimize {
			p.SetOptimizeInterval(512)
		} else {
			p.SetOptimizeInterval(0)
		}
		return p
	}
	run := func(p *gatekeeper.Project) float64 {
		rng := stats.NewRNG(opts.Seed)
		for i := 0; i < 50_000; i++ {
			u := sampleUser(rng, int64(i%10_000))
			u.Country = "US"
			p.Check(u)
		}
		return p.RestraintCost()
	}
	unopt := run(build(false))
	opt := run(build(true))
	r.Text = fmt.Sprintf("50k checks of [laser() AND country∈{IS}]:\n  static order cost: %.0f units\n  cost-based order:  %.0f units\n  saving: %.1fx\n",
		unopt, opt, unopt/opt)
	r.metric("unoptimized_cost", unopt, 0, false)
	r.metric("optimized_cost", opt, 0, false)
	r.metric("saving_factor", unopt/opt, 0, false)
	return r
}

// AblationMobileDelta measures MobileConfig's hash-based delta pull
// against resending full values on every poll (§5's bandwidth argument).
// One run gives both sides: the server counts, per not-modified answer, the
// bytes the full response would have been.
func AblationMobileDelta(opts Options) Result {
	r := Result{ID: "ablation-mobile-delta", Title: "MobileConfig delta pull vs full responses"}
	devices := 200
	if opts.Quick {
		devices = 60
	}
	net := simnet.New(simnet.DefaultLatency(), opts.Seed)
	reg := gatekeeper.NewRegistry(nil)
	grt := gatekeeper.NewRuntime(reg)
	spec := &gatekeeper.ProjectSpec{Project: "MX", Rules: []gatekeeper.RuleSpec{{
		Restraints: []gatekeeper.RestraintSpec{{Name: "always"}}, PassProbability: 0.5,
	}}}
	if err := grt.Load(spec.Encode()); err != nil {
		panic(err)
	}
	tr := mobileconfig.NewTranslator(grt, nil)
	mapping := &mobileconfig.Mapping{Config: "APP", Fields: map[string]mobileconfig.FieldBinding{
		"FEATURE_X":   {Backend: mobileconfig.BackendGatekeeper, Project: "MX"},
		"MAX_RETRIES": {Backend: mobileconfig.BackendConstant, Value: 3.0},
		"ENDPOINT":    {Backend: mobileconfig.BackendConstant, Value: "https://api.example.com/graph/v2"},
	}}
	if err := tr.LoadMapping(mapping.Encode()); err != nil {
		panic(err)
	}
	srv := mobileconfig.NewServer(net, "mcfg", simnet.Placement{Region: "us", Cluster: "web"},
		tr, func(id int64) *gatekeeper.User {
			return &gatekeeper.User{ID: id, Now: vclock.Epoch}
		})
	schema := tr.RegisterSchema([]string{"FEATURE_X", "MAX_RETRIES", "ENDPOINT"})
	var devs []*mobileconfig.Device
	for i := 0; i < devices; i++ {
		d := mobileconfig.NewDevice(net, simnet.NodeID(fmt.Sprintf("ph-%d", i)),
			simnet.Placement{Region: "mobile", Cluster: "cell"}, "mcfg", "APP", int64(i), schema)
		d.SetPollInterval(time.Hour)
		devs = append(devs, d)
	}
	net.RunFor(24 * time.Hour)
	var pulls uint64
	for _, d := range devs {
		pulls += d.Pulls
	}
	deltaBytes, fullBytes := net.BytesSent, net.BytesSent+srv.BytesSaved
	r.Text = fmt.Sprintf("%d devices, 24h of hourly polls (%d pulls), values unchanged after first fetch:\n  delta protocol: %.1f KB transferred\n  full responses: %.1f KB transferred\n  bandwidth saving: %.1fx\n",
		devices, pulls, float64(deltaBytes)/1e3, float64(fullBytes)/1e3,
		float64(fullBytes)/float64(deltaBytes))
	r.metric("delta_bytes", float64(deltaBytes), 0, false)
	r.metric("full_bytes", float64(fullBytes), 0, false)
	r.metric("bandwidth_saving", float64(fullBytes)/float64(deltaBytes), 0, false)
	return r
}
