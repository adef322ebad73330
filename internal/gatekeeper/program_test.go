package gatekeeper

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"configerator/internal/laser"
	"configerator/internal/stats"
	"configerator/internal/vclock"
)

// sampleUser is the die as the quick properties name it.
func sampleUser(project string, userID int64, p float64) bool {
	return sampled(stats.HashPrefix(project+":"), userID, p)
}

// The reference evaluator: gk_check as it ran before projects were compiled.
// It reads Params on every evaluation with its own readers and its own
// defaults, formats the die's string, and shares nothing with the program
// but the spec types and stats.HashFloat.

func refStrings(p Params, key string) []string {
	switch v := p[key].(type) {
	case []string:
		return v
	case []interface{}:
		var out []string
		for _, e := range v {
			if s, ok := e.(string); ok {
				out = append(out, s)
			}
		}
		return out
	}
	return nil
}

func refFloat(p Params, key string, def float64) float64 {
	switch v := p[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return def
}

func refInts(p Params, key string) []int64 {
	switch v := p[key].(type) {
	case []int64:
		return v
	case []interface{}:
		var out []int64
		for _, e := range v {
			if f, ok := e.(float64); ok {
				out = append(out, int64(f))
			}
		}
		return out
	}
	return nil
}

func refIn(p Params, v string) bool {
	for _, s := range refStrings(p, "in") {
		if s == v {
			return true
		}
	}
	return false
}

// refRestraints is every built-in restraint, by name.
var refRestraints = map[string]func(ls *laser.Store, u *User, p Params) bool{
	"always":       func(_ *laser.Store, u *User, p Params) bool { return true },
	"employee":     func(_ *laser.Store, u *User, p Params) bool { return u.Employee },
	"country":      func(_ *laser.Store, u *User, p Params) bool { return refIn(p, u.Country) },
	"region":       func(_ *laser.Store, u *User, p Params) bool { return refIn(p, u.Region) },
	"locale":       func(_ *laser.Store, u *User, p Params) bool { return refIn(p, u.Locale) },
	"app":          func(_ *laser.Store, u *User, p Params) bool { return refIn(p, u.App) },
	"platform":     func(_ *laser.Store, u *User, p Params) bool { return refIn(p, u.Platform) },
	"device_model": func(_ *laser.Store, u *User, p Params) bool { return refIn(p, u.DeviceModel) },
	"weekday":      func(_ *laser.Store, u *User, p Params) bool { return refIn(p, u.Now.Weekday().String()) },
	"app_version_at_least": func(_ *laser.Store, u *User, p Params) bool {
		return float64(u.AppVersion) >= refFloat(p, "version", 0)
	},
	"new_user": func(_ *laser.Store, u *User, p Params) bool {
		return u.AccountAge <= time.Duration(refFloat(p, "max_days", 30))*24*time.Hour
	},
	"account_age_at_least_days": func(_ *laser.Store, u *User, p Params) bool {
		return u.AccountAge >= time.Duration(refFloat(p, "days", 0))*24*time.Hour
	},
	"friend_count_at_least": func(_ *laser.Store, u *User, p Params) bool {
		return float64(u.FriendCount) >= refFloat(p, "n", 0)
	},
	"friend_count_at_most": func(_ *laser.Store, u *User, p Params) bool {
		return float64(u.FriendCount) <= refFloat(p, "n", 0)
	},
	"id_in": func(_ *laser.Store, u *User, p Params) bool {
		for _, id := range refInts(p, "ids") {
			if id == u.ID {
				return true
			}
		}
		return false
	},
	"id_mod": func(_ *laser.Store, u *User, p Params) bool {
		mod := int64(refFloat(p, "mod", 100))
		if mod <= 0 {
			return false
		}
		for _, b := range refInts(p, "buckets") {
			if b == u.ID%mod {
				return true
			}
		}
		return false
	},
	"datetime_range": func(_ *laser.Store, u *User, p Params) bool {
		t := u.Now.Unix()
		return t >= int64(refFloat(p, "after_unix", 0)) && t < int64(refFloat(p, "before_unix", 1<<62))
	},
	"hour_range": func(_ *laser.Store, u *User, p Params) bool {
		h := float64(u.Now.Hour())
		return h >= refFloat(p, "from", 0) && h < refFloat(p, "to", 24)
	},
	"laser": func(ls *laser.Store, u *User, p Params) bool {
		if ls == nil {
			return false
		}
		project, _ := p["project"].(string)
		score, ok := ls.Get(project, u.ID)
		return ok && score > refFloat(p, "threshold", 0)
	},
}

func refCheck(spec *ProjectSpec, ls *laser.Store, u *User) bool {
	for _, rule := range spec.Rules {
		matched := true
		for _, rs := range rule.Restraints {
			if refRestraints[rs.Name](ls, u, rs.Params) == rs.Negate {
				matched = false
				break
			}
		}
		if matched {
			p := rule.PassProbability
			return p >= 1 || (p > 0 && stats.HashFloat(fmt.Sprintf("%s:%d", spec.Project, u.ID)) < p)
		}
	}
	return false
}

// Random specs and users.

var (
	genStrings = []string{"US", "CA", "GB", "rUS", "en_US", "fb4a", "ios", "android", "iPhone6", "Monday", "Saturday", ""}
	genNumbers = []float64{-3, -1, 0, 0.5, 1, 2, 7, 10, 23.5, 24, 100, 365, 1e6, 1e18, 1e300, -1e300}
	genKeys    = map[string][]string{
		"country": {"in"}, "region": {"in"}, "locale": {"in"}, "app": {"in"}, "platform": {"in"},
		"device_model": {"in"}, "weekday": {"in"}, "app_version_at_least": {"version"},
		"new_user": {"max_days"}, "account_age_at_least_days": {"days"},
		"friend_count_at_least": {"n"}, "friend_count_at_most": {"n"}, "id_in": {"ids"},
		"id_mod": {"mod", "buckets"}, "datetime_range": {"after_unix", "before_unix"},
		"hour_range": {"from", "to"}, "laser": {"project", "threshold"},
		"always": nil, "employee": nil,
	}
)

// genValue is a param value for key: usually well-typed, sometimes missing
// (the caller skips nil), empty, or the wrong type.
func genValue(rng *stats.RNG, key string, now time.Time) interface{} {
	pick := func() float64 { return genNumbers[rng.Intn(len(genNumbers))] }
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []interface{}{"US", pick(), true, "ios", 3.0}[rng.Intn(5)] // a scalar where a list may be due, and back
	}
	switch key {
	case "in":
		n := rng.Intn(4)
		if rng.Bool(0.5) {
			out := make([]string, n)
			for i := range out {
				out[i] = genStrings[rng.Intn(len(genStrings))]
			}
			return out
		}
		out := make([]interface{}, n)
		for i := range out {
			out[i] = genStrings[rng.Intn(len(genStrings))]
			if rng.Bool(0.1) {
				out[i] = pick()
			}
		}
		return out
	case "ids", "buckets":
		n := rng.Intn(5)
		if rng.Bool(0.3) {
			out := make([]int64, n)
			for i := range out {
				out[i] = int64(rng.Intn(12)) - 2
			}
			return out
		}
		out := make([]interface{}, n)
		for i := range out {
			out[i] = float64(rng.Intn(12) - 2)
			if rng.Bool(0.1) {
				out[i] = "7"
			}
		}
		return out
	case "project":
		return []string{"L", "Other", ""}[rng.Intn(3)]
	case "threshold":
		return []interface{}{0.0, 0.5, 0.9, -1.0, int(1), int64(0)}[rng.Intn(6)]
	case "after_unix", "before_unix":
		return float64(now.Unix() + int64(rng.Intn(7))*86400 - 3*86400)
	}
	if rng.Bool(0.1) {
		return int(pick())
	}
	return pick()
}

func genSpec(rng *stats.RNG, name string, now time.Time) *ProjectSpec {
	names := make([]string, 0, len(genKeys))
	for n := range refRestraints {
		names = append(names, n)
	}
	sort.Strings(names) // map order is random; sorted, a seed reproduces a spec
	spec := &ProjectSpec{Project: name}
	for r := 1 + rng.Intn(4); r > 0; r-- {
		rule := RuleSpec{PassProbability: []float64{0, 0.01, 0.3, 0.5, 0.9, 1}[rng.Intn(6)]}
		for c := rng.Intn(4); c > 0; c-- {
			rs := RestraintSpec{Name: names[rng.Intn(len(names))], Negate: rng.Bool(0.25)}
			for _, key := range genKeys[rs.Name] {
				if v := genValue(rng, key, now); v != nil {
					if rs.Params == nil {
						rs.Params = Params{}
					}
					rs.Params[key] = v
				}
			}
			rule.Restraints = append(rule.Restraints, rs)
		}
		spec.Rules = append(spec.Rules, rule)
	}
	return spec
}

// genUser draws numeric attributes from the parameter values and their
// neighbours, so thresholds and defaults are hit on both sides.
func genUser(rng *stats.RNG, now time.Time) *User {
	s := func() string { return genStrings[rng.Intn(len(genStrings))] }
	near := func() int { return int(genNumbers[rng.Intn(13)]) + rng.Intn(3) - 1 } // up to 1e6
	u := &User{
		ID: int64(rng.Intn(40)) - 8, Employee: rng.Bool(0.3),
		Country: s(), Region: s(), Locale: s(), App: s(), Platform: s(), DeviceModel: s(),
		AppVersion: near(), FriendCount: near(),
		AccountAge: time.Duration([]int{-1, 0, 1, 2, 7, 10, 24, 29, 30, 31, 100, 365}[rng.Intn(12)]*24+rng.Intn(3)-1) * time.Hour,
		Now:        now.Add(time.Duration(rng.Intn(8*24*60)-4*24*60) * time.Minute),
	}
	switch rng.Intn(20) {
	case 0:
		u.ID = math.MinInt64
	case 1:
		u.ID = math.MaxInt64
	case 2:
		u.Now = time.Time{}
	case 3, 4, 5, 6:
		u.Now = now.Add(time.Duration(rng.Intn(7)-3) * 24 * time.Hour) // a datetime_range bound, exactly
	}
	return u
}

func genLaser(rng *stats.RNG) *laser.Store {
	ls := laser.NewStore()
	for id := int64(-8); id < 32; id++ {
		if rng.Bool(0.7) {
			ls.Set("L", id, []float64{-1, 0, 0.25, 0.5, 0.9, 1}[rng.Intn(6)]) // thresholds and values between
		}
	}
	return ls
}

// TestCompiledMatchesReference: over random specs of all 19 built-ins —
// params missing, empty, wrong-typed, lists as []string and as the
// []interface{} JSON decodes to, mod <= 0 — and random users, the compiled
// program answers what the reference evaluator answers, compiled from the
// spec directly and from its encoded artifact, before and after reorders.
func TestCompiledMatchesReference(t *testing.T) {
	if len(genKeys) != 19 || len(refRestraints) != 19 || len(NewRegistry(nil).byName) != 19 {
		t.Fatalf("generator knows %d restraints, reference %d, registry %d; want 19 each",
			len(genKeys), len(refRestraints), len(NewRegistry(nil).byName))
	}
	rng := stats.NewRNG(22)
	now := vclock.Epoch
	seen := map[string]int{}
	for s := 0; s < 600; s++ {
		ls := genLaser(rng)
		reg := NewRegistry(ls)
		if s%5 == 0 {
			ls, reg = nil, NewRegistry(nil)
		}
		spec := genSpec(rng, fmt.Sprintf("Rand%d", s%7), now)
		direct, err := Compile(spec, reg)
		if err != nil {
			t.Fatal(err)
		}
		direct.SetOptimizeInterval(5)
		parsed, err := ParseProjectSpec(spec.Encode())
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Compile(parsed, reg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rule := range spec.Rules {
			for _, rs := range rule.Restraints {
				seen[rs.Name]++
			}
		}
		for i := 0; i < 60; i++ {
			u := genUser(rng, now)
			want := refCheck(spec, ls, u)
			if got := direct.Check(u); got != want {
				t.Fatalf("spec %s\nuser %+v\ncompiled from the spec answers %v, reference %v", spec.Encode(), *u, got, want)
			}
			if got := loaded.Check(u); got != want {
				t.Fatalf("spec %s\nuser %+v\ncompiled from the artifact answers %v, reference %v", spec.Encode(), *u, got, want)
			}
		}
	}
	for name := range refRestraints {
		if seen[name] < 20 {
			t.Errorf("restraint %s generated only %d times", name, seen[name])
		}
	}
}

// figure5 is the restraint mix real gates use (Figure 5).
func figure5(name string) *ProjectSpec {
	return &ProjectSpec{Project: name, Rules: []RuleSpec{
		{Restraints: []RestraintSpec{{Name: "employee"}}, PassProbability: 1.0},
		{Restraints: []RestraintSpec{
			{Name: "country", Params: Params{"in": []string{"US", "CA", "GB"}}},
			{Name: "app_version_at_least", Params: Params{"version": 100.0}},
			{Name: "friend_count_at_least", Params: Params{"n": 10.0}},
		}, PassProbability: 0.10},
		{Restraints: []RestraintSpec{
			{Name: "platform", Params: Params{"in": []string{"ios", "android"}}},
		}, PassProbability: 0.01},
	}}
}

func figure5Users(n int) []*User {
	rng := stats.NewRNG(5)
	countries := []string{"US", "BR", "IN", "GB", "JP", "DE"}
	platforms := []string{"www", "ios", "android"}
	users := make([]*User, n)
	for i := range users {
		users[i] = &User{
			ID: int64(i), Employee: rng.Bool(0.01),
			Country: countries[rng.Intn(len(countries))], Region: "r" + countries[rng.Intn(len(countries))],
			Platform: platforms[rng.Intn(len(platforms))], App: "fb4a",
			AppVersion: 90 + rng.Intn(40), FriendCount: rng.Intn(500), Now: vclock.Epoch,
		}
	}
	return users
}

// TestCheckZeroAlloc: a check allocates nothing, whatever the program —
// the Figure 5 mix, each rollout stage, a negated rule, id lists, a laser()
// rule — with every spec loaded from its artifact, so lists arrive as
// []interface{}. The counterpart of confclient's TestReadZeroAllocWarm.
func TestCheckZeroAlloc(t *testing.T) {
	ls := laser.NewStore()
	for id := int64(0); id < 64; id += 2 {
		ls.Set("Scored", id, 0.9)
	}
	specs := []*ProjectSpec{figure5("Fig5a"), figure5("Fig5b"),
		{Project: "Negated", Rules: []RuleSpec{{Restraints: []RestraintSpec{
			{Name: "country", Params: Params{"in": []string{"US"}}, Negate: true},
			{Name: "id_mod", Params: Params{"mod": 10.0, "buckets": []interface{}{1.0, 2.0, 3.0}}},
			{Name: "weekday", Params: Params{"in": []string{"Saturday", "Sunday"}}, Negate: true},
		}, PassProbability: 0.5}}},
		{Project: "Scored", Rules: []RuleSpec{{Restraints: []RestraintSpec{
			{Name: "laser", Params: Params{"project": "Scored", "threshold": 0.5}},
			{Name: "id_in", Params: Params{"ids": []interface{}{2.0, 4.0, 5.0}}, Negate: true},
		}, PassProbability: 0.5}}},
	}
	for i, stage := range RolloutStages("Launch", "rUS") {
		stage.Project = fmt.Sprintf("Launch%d", i)
		specs = append(specs, stage)
	}
	rt := NewRuntime(NewRegistry(ls))
	for _, spec := range specs {
		if err := rt.Load(spec.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	users := figure5Users(64)
	passes := 0
	sweep := func() {
		for _, spec := range specs {
			for _, u := range users {
				if rt.Check(spec.Project, u) {
					passes++
				}
			}
		}
		rt.Check("NotLoaded", users[0])
	}
	for i := 0; i < 100; i++ { // past the reorders that publish a new order
		sweep()
	}
	if avg := testing.AllocsPerRun(50, sweep); avg != 0 {
		t.Errorf("%v allocations per sweep of %d checks, want 0", avg, len(specs)*len(users)+1)
	}
	if passes == 0 {
		t.Error("no check passed")
	}
}

// TestCheckRacesLoad: checks from several goroutines while another cycles
// Load through a rollout and reorders fire. A check of a static project
// answers its spec; a check of the launch project answers the spec of a
// stage loaded between the last Load finished before the check and the last
// Load begun by its end; an unknown project fails closed. Run under -race.
func TestCheckRacesLoad(t *testing.T) {
	const static, checkers, checksEach, minLoads = 3, 4, 30_000, 50
	users := figure5Users(256)
	rt := NewRuntime(NewRegistry(nil))
	names := make([]string, static)
	expect := make([][]bool, static)
	for p := range names {
		names[p] = fmt.Sprintf("Proj%d", p)
		spec := figure5(names[p])
		conj := spec.Rules[1].Restraints
		conj[0], conj[2] = conj[2], conj[0] // least selective first, so a reorder has something to publish
		if err := rt.Load(spec.Encode()); err != nil {
			t.Fatal(err)
		}
		rt.Project(names[p]).SetOptimizeInterval(64)
		for _, u := range users {
			expect[p] = append(expect[p], refCheck(spec, nil, u))
		}
	}
	stages := RolloutStages("Launch", "rUS")
	launch := make([][]bool, len(stages))
	for s, spec := range stages {
		for _, u := range users {
			launch[s] = append(launch[s], refCheck(spec, nil, u))
		}
	}
	if err := rt.Load(stages[0].Encode()); err != nil {
		t.Fatal(err)
	}
	// Loads begun and finished; load n installs stages[n % len(stages)].
	var begun, finished atomic.Int64
	var loadFailed atomic.Bool
	stop := make(chan struct{})
	var loader, wg sync.WaitGroup
	loader.Add(1)
	go func() {
		defer loader.Done()
		for n := int64(1); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			begun.Store(n)
			if err := rt.Load(stages[n%int64(len(stages))].Encode()); err != nil {
				t.Error(err)
				loadFailed.Store(true)
				return
			}
			finished.Store(n)
		}
	}()
	for g := 0; g < checkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; (i < checksEach || finished.Load() < minLoads) && !loadFailed.Load(); i++ {
				u := i * 7 % len(users)
				switch p := i % (static + 2); {
				case p < static:
					if got := rt.Check(names[p], users[u]); got != expect[p][u] {
						t.Errorf("%s user %d: got %v", names[p], u, got)
						return
					}
				case p == static:
					if rt.Check("NotLoaded", users[u]) {
						t.Error("unknown project passed")
						return
					}
				default:
					lo := finished.Load()
					got := rt.Check("Launch", users[u])
					ok := false
					for n, hi := lo, begun.Load(); n <= hi && !ok; n++ {
						ok = launch[n%int64(len(stages))][u] == got
					}
					if !ok {
						t.Errorf("Launch user %d: got %v, the answer of no stage loaded from load %d on", u, got, lo)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	loader.Wait()
	for _, name := range names {
		if order := rt.Project(name).EvalOrder(1); order[0] != "country" {
			t.Errorf("%s rule 2 order %v: no reorder was published beside the checks", name, order)
		}
	}
}

// FuzzParseProjectSpec: no artifact makes Load panic; one that loads never
// panics in Check, answers what the reference evaluator answers, and
// re-encodes to an artifact that loads to the same answers.
func FuzzParseProjectSpec(f *testing.F) {
	f.Add(figure5("Fig5").Encode())
	for _, stage := range RolloutStages("Launch", "rUS") {
		f.Add(stage.Encode())
	}
	now := vclock.Epoch
	rng := stats.NewRNG(4)
	for i := 0; i < 8; i++ {
		f.Add(genSpec(rng, "Rand", now).Encode())
	}
	ls := genLaser(rng)
	users := make([]*User, 24)
	for i := range users {
		users[i] = genUser(rng, now)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rt := NewRuntime(NewRegistry(ls))
		if rt.Load(data) != nil {
			return
		}
		spec, err := ParseProjectSpec(data)
		if err != nil {
			t.Fatalf("Load accepted what ParseProjectSpec rejects: %v", err)
		}
		again := NewRuntime(NewRegistry(ls))
		if err := again.Load(spec.Encode()); err != nil {
			t.Fatalf("re-encoded spec does not load: %v\n%s", err, spec.Encode())
		}
		for _, u := range users {
			got, want := rt.Check(spec.Project, u), refCheck(spec, ls, u)
			if got != want || again.Check(spec.Project, u) != want {
				t.Fatalf("user %+v: loaded %v, re-encoded %v, reference %v\n%s",
					*u, got, again.Check(spec.Project, u), want, spec.Encode())
			}
		}
	})
}
