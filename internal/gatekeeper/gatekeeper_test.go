package gatekeeper

import (
	"math"
	"testing"
	"time"

	"configerator/internal/laser"
	"configerator/internal/vclock"
)

func reg() *Registry { return NewRegistry(nil) }

func compile(t *testing.T, spec *ProjectSpec, r *Registry) *Project {
	t.Helper()
	p, err := Compile(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	p.SetOptimizeInterval(0)
	return p
}

func employeeUser(id int64) *User {
	return &User{ID: id, Employee: true, Country: "US", Region: "us-west",
		Platform: "www", Now: vclock.Epoch}
}

func TestEmployeeGate(t *testing.T) {
	spec := &ProjectSpec{Project: "ProjectX", Rules: []RuleSpec{{
		Restraints:      []RestraintSpec{{Name: "employee"}},
		PassProbability: 1.0,
	}}}
	p := compile(t, spec, reg())
	if !p.Check(employeeUser(1)) {
		t.Error("employee should pass")
	}
	civ := employeeUser(2)
	civ.Employee = false
	if p.Check(civ) {
		t.Error("non-employee should fail")
	}
}

func TestNegation(t *testing.T) {
	spec := &ProjectSpec{Project: "P", Rules: []RuleSpec{{
		Restraints:      []RestraintSpec{{Name: "employee", Negate: true}},
		PassProbability: 1.0,
	}}}
	p := compile(t, spec, reg())
	if p.Check(employeeUser(1)) {
		t.Error("negated employee should fail for employees")
	}
	civ := employeeUser(2)
	civ.Employee = false
	if !p.Check(civ) {
		t.Error("negated employee should pass for non-employees")
	}
}

func TestSamplingDeterministicAndMonotonic(t *testing.T) {
	mk := func(prob float64) *Project {
		return compile(t, &ProjectSpec{Project: "P", Rules: []RuleSpec{{
			Restraints:      []RestraintSpec{{Name: "always"}},
			PassProbability: prob,
		}}}, reg())
	}
	p1 := mk(0.01)
	p10 := mk(0.10)
	inAt1, inAt10 := 0, 0
	for id := int64(0); id < 20000; id++ {
		u := employeeUser(id)
		a := p1.Check(u)
		b := p10.Check(u)
		if a {
			inAt1++
			if !b {
				t.Fatalf("user %d enabled at 1%% but disabled at 10%%: rollout not monotonic", id)
			}
		}
		if b {
			inAt10++
		}
		// Determinism: re-check gives the same answer.
		if p1.Check(u) != a {
			t.Fatalf("user %d: nondeterministic check", id)
		}
	}
	f1 := float64(inAt1) / 20000
	f10 := float64(inAt10) / 20000
	if math.Abs(f1-0.01) > 0.005 {
		t.Errorf("1%% rollout hit %.3f", f1)
	}
	if math.Abs(f10-0.10) > 0.01 {
		t.Errorf("10%% rollout hit %.3f", f10)
	}
}

func TestDNFOrderedRules(t *testing.T) {
	// Figure 5 shape: first matching if-statement decides; later rules are
	// not consulted.
	spec := &ProjectSpec{Project: "P", Rules: []RuleSpec{
		{Restraints: []RestraintSpec{{Name: "employee"}}, PassProbability: 0}, // employees: always fail
		{Restraints: []RestraintSpec{{Name: "always"}}, PassProbability: 1.0}, // everyone else: pass
	}}
	p := compile(t, spec, reg())
	if p.Check(employeeUser(1)) {
		t.Error("employee matched rule 1 with p=0; must not fall through to rule 2")
	}
	civ := employeeUser(2)
	civ.Employee = false
	if !p.Check(civ) {
		t.Error("non-employee should reach rule 2")
	}
}

func TestBuiltinRestraints(t *testing.T) {
	r := reg()
	now := vclock.Epoch
	u := &User{
		ID: 42, Country: "JP", Region: "apac", Locale: "ja_JP",
		App: "messenger", Platform: "ios", AppVersion: 120,
		DeviceModel: "iPhone6", AccountAge: 10 * 24 * time.Hour,
		FriendCount: 250, Now: now,
	}
	cases := []struct {
		name   string
		params Params
		want   bool
	}{
		{"always", nil, true},
		{"country", Params{"in": []string{"JP", "KR"}}, true},
		{"country", Params{"in": []string{"US"}}, false},
		{"region", Params{"in": []string{"apac"}}, true},
		{"locale", Params{"in": []string{"ja_JP"}}, true},
		{"app", Params{"in": []string{"messenger"}}, true},
		{"platform", Params{"in": []string{"ios", "android"}}, true},
		{"platform", Params{"in": []string{"www"}}, false},
		{"device_model", Params{"in": []string{"iPhone6"}}, true},
		{"app_version_at_least", Params{"version": 100.0}, true},
		{"app_version_at_least", Params{"version": 200.0}, false},
		{"new_user", Params{"max_days": 30.0}, true},
		{"new_user", Params{"max_days": 5.0}, false},
		{"account_age_at_least_days", Params{"days": 5.0}, true},
		{"friend_count_at_least", Params{"n": 100.0}, true},
		{"friend_count_at_most", Params{"n": 100.0}, false},
		{"id_in", Params{"ids": []interface{}{41.0, 42.0}}, true},
		{"id_in", Params{"ids": []interface{}{7.0}}, false},
		{"id_mod", Params{"mod": 10.0, "buckets": []interface{}{2.0}}, true}, // 42%10=2
		{"id_mod", Params{"mod": 10.0, "buckets": []interface{}{3.0}}, false},
		{"datetime_range", Params{"after_unix": float64(now.Unix() - 10)}, true},
		{"datetime_range", Params{"after_unix": float64(now.Unix() + 10)}, false},
		{"weekday", Params{"in": []string{now.Weekday().String()}}, true},
		{"hour_range", Params{"from": 0.0, "to": 24.0}, true},
	}
	for _, c := range cases {
		res, err := r.Lookup(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := res.bind(c.params)(u); got != c.want {
			t.Errorf("%s(%v) = %v, want %v", c.name, c.params, got, c.want)
		}
	}
}

func TestLaserRestraint(t *testing.T) {
	ls := laser.NewStore()
	r := NewRegistry(ls)
	// Trending-topics style scores, as a batch job would load them.
	for id := int64(1); id <= 4; id++ {
		score := 0.1
		if id%2 == 0 {
			score = 0.9
		}
		ls.Set("Trending", id, score)
	}
	spec := &ProjectSpec{Project: "Trending", Rules: []RuleSpec{{
		Restraints: []RestraintSpec{{Name: "laser",
			Params: Params{"project": "Trending", "threshold": 0.5}}},
		PassProbability: 1.0,
	}}}
	p := compile(t, spec, r)
	if !p.Check(employeeUser(2)) {
		t.Error("high-score user should pass laser gate")
	}
	if p.Check(employeeUser(3)) {
		t.Error("low-score user should fail laser gate")
	}
	if p.Check(employeeUser(99)) {
		t.Error("missing laser key should fail")
	}
	if ls.Gets.Load() == 0 {
		t.Error("laser store not consulted")
	}
}

func TestParseProjectSpec(t *testing.T) {
	data := []byte(`{"project":"X","rules":[{"restraints":[{"name":"employee"}],"pass_probability":0.5}]}`)
	spec, err := ParseProjectSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Project != "X" || len(spec.Rules) != 1 {
		t.Errorf("spec = %+v", spec)
	}
	// Round trip.
	spec2, err := ParseProjectSpec(spec.Encode())
	if err != nil || spec2.Project != "X" {
		t.Errorf("round trip failed: %v", err)
	}
}

func TestParseProjectSpecErrors(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"rules":[]}`,
		`{"project":"X","rules":[{"pass_probability":1.5}]}`,
	} {
		if _, err := ParseProjectSpec([]byte(bad)); err == nil {
			t.Errorf("ParseProjectSpec(%q) succeeded", bad)
		}
	}
}

func TestCompileUnknownRestraint(t *testing.T) {
	spec := &ProjectSpec{Project: "P", Rules: []RuleSpec{{
		Restraints: []RestraintSpec{{Name: "no_such_restraint"}},
	}}}
	if _, err := Compile(spec, reg()); err == nil {
		t.Fatal("expected unknown-restraint error")
	}
}

func TestOptimizerReordersExpensiveRestraintLast(t *testing.T) {
	ls := laser.NewStore() // empty: laser always false... we want laser true mostly
	r := NewRegistry(ls)
	for id := int64(0); id < 1000; id++ {
		ls.Set("P", id, 1.0)
	}
	// Conjunction: laser (expensive, usually true) AND country (cheap,
	// usually false). The optimizer must move country first.
	spec := &ProjectSpec{Project: "P", Rules: []RuleSpec{{
		Restraints: []RestraintSpec{
			{Name: "laser", Params: Params{"project": "P", "threshold": 0.5}},
			{Name: "country", Params: Params{"in": []string{"IS"}}}, // rare
		},
		PassProbability: 1.0,
	}}}
	p := compile(t, spec, r)
	p.SetOptimizeInterval(256)
	u := employeeUser(0)
	for id := int64(0); id < 2000; id++ {
		u.ID = id % 1000
		u.Country = "US" // never Iceland
		p.Check(u)
	}
	order := p.EvalOrder(0)
	if order[0] != "country" {
		t.Errorf("EvalOrder = %v; optimizer should front-load the cheap selective restraint", order)
	}
	// With country first, the laser store stops being consulted.
	before := ls.Gets.Load()
	for id := int64(0); id < 1000; id++ {
		u.ID = id
		p.Check(u)
	}
	if after := ls.Gets.Load(); after != before {
		t.Errorf("laser consulted %d times after optimization", after-before)
	}
}

func TestOptimizerReducesCost(t *testing.T) {
	build := func(interval uint64) *Project {
		ls := laser.NewStore()
		r := NewRegistry(ls)
		spec := &ProjectSpec{Project: "P", Rules: []RuleSpec{{
			Restraints: []RestraintSpec{
				{Name: "laser", Params: Params{"project": "P", "threshold": 0.5}},
				{Name: "employee"},
			},
			PassProbability: 1.0,
		}}}
		p, err := Compile(spec, r)
		if err != nil {
			t.Fatal(err)
		}
		p.SetOptimizeInterval(interval)
		return p
	}
	run := func(p *Project) float64 {
		u := employeeUser(0)
		u.Employee = false // employee restraint always false
		for id := int64(0); id < 10000; id++ {
			u.ID = id
			p.Check(u)
		}
		return p.RestraintCost()
	}
	unopt := run(build(0))
	opt := run(build(256))
	if opt >= unopt {
		t.Errorf("optimized cost %v !< unoptimized %v", opt, unopt)
	}
	if opt > unopt/5 {
		t.Errorf("optimizer saved too little: %v vs %v", opt, unopt)
	}
}

func TestRuntimeLoadAndCheck(t *testing.T) {
	rt := NewRuntime(reg())
	spec := &ProjectSpec{Project: "Feature", Rules: []RuleSpec{{
		Restraints: []RestraintSpec{{Name: "employee"}}, PassProbability: 1,
	}}}
	if err := rt.Load(spec.Encode()); err != nil {
		t.Fatal(err)
	}
	if !rt.Check("Feature", employeeUser(1)) {
		t.Error("loaded project should gate")
	}
	if rt.Check("Unknown", employeeUser(1)) {
		t.Error("unknown project must fail closed")
	}
	if rt.Project("Feature") == nil || rt.Project("Unknown") != nil {
		t.Errorf("Project(Feature) = %v, Project(Unknown) = %v", rt.Project("Feature"), rt.Project("Unknown"))
	}
	// Live update: disable the feature.
	spec.Rules[0].PassProbability = 0
	if err := rt.Load(spec.Encode()); err != nil {
		t.Fatal(err)
	}
	if rt.Check("Feature", employeeUser(1)) {
		t.Error("disabled project still passing")
	}
	if rt.Recompiles != 2 {
		t.Errorf("Recompiles = %d", rt.Recompiles)
	}
}

func TestRolloutStagesMonotoneExposure(t *testing.T) {
	stages := RolloutStages("Launch", "us-west")
	rt := NewRuntime(reg())
	users := make([]*User, 0, 5000)
	for id := int64(0); id < 5000; id++ {
		u := employeeUser(id)
		u.Employee = id%100 == 0 // 1% employees
		u.Region = "us-west"
		if id%3 == 0 {
			u.Region = "eu"
		}
		users = append(users, u)
	}
	prevEnabled := make(map[int64]bool)
	prevCount := 0
	for si, spec := range stages {
		if err := rt.Load(spec.Encode()); err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, u := range users {
			if rt.Check("Launch", u) {
				count++
				// A user enabled in an earlier stage must stay enabled:
				// launches only widen.
			} else if prevEnabled[u.ID] {
				t.Fatalf("stage %d disabled user %d who was enabled earlier", si, u.ID)
			}
		}
		for _, u := range users {
			if rt.Check("Launch", u) {
				prevEnabled[u.ID] = true
			}
		}
		if count < prevCount {
			t.Fatalf("stage %d shrank exposure: %d -> %d", si, prevCount, count)
		}
		prevCount = count
	}
	if prevCount != len(users) {
		t.Errorf("final stage enabled %d of %d", prevCount, len(users))
	}
}
