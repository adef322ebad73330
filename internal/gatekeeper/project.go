package gatekeeper

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"configerator/internal/stats"
)

// RestraintSpec is one configured restraint instance within a rule. The
// negation operator is built inside each restraint (§4): Negate flips the
// result, giving the gating logic the full expressive power of DNF.
type RestraintSpec struct {
	Name   string `json:"name"`
	Params Params `json:"params,omitempty"`
	Negate bool   `json:"negate,omitempty"`
}

// RuleSpec is one if-statement: a conjunction of restraints plus the
// probabilistic user sampling applied when the conjunction holds.
type RuleSpec struct {
	Restraints []RestraintSpec `json:"restraints"`
	// PassProbability in [0,1]: rand(user_id) < p, deterministic per
	// (project, user) so a user's experience is stable and raising p from
	// 1% to 10% strictly grows the enabled set.
	PassProbability float64 `json:"pass_probability"`
}

// ProjectSpec is the JSON shape of a Gatekeeper project config as stored
// in Configerator.
type ProjectSpec struct {
	Project string     `json:"project"`
	Rules   []RuleSpec `json:"rules"`
}

// ParseProjectSpec decodes a project config artifact.
func ParseProjectSpec(data []byte) (*ProjectSpec, error) {
	var spec ProjectSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("gatekeeper: parsing project config: %w", err)
	}
	if spec.Project == "" {
		return nil, fmt.Errorf("gatekeeper: project config missing \"project\"")
	}
	for i, rule := range spec.Rules {
		if rule.PassProbability < 0 || rule.PassProbability > 1 {
			return nil, fmt.Errorf("gatekeeper: rule %d pass_probability %v out of [0,1]",
				i, rule.PassProbability)
		}
	}
	return &spec, nil
}

// Encode renders the spec as its canonical JSON artifact.
func (s *ProjectSpec) Encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic("gatekeeper: encoding project spec: " + err.Error())
	}
	return b
}

// boundRestraint is one restraint instance of a compiled rule — an
// instruction of the program: the test its restraint bound from the spec's
// Params, and the execution statistics for cost-based optimization. A
// reorder permutes pointers to it, so the counters carry over.
type boundRestraint struct {
	spec         RestraintSpec
	test         test
	cost         float64
	evals, trues atomic.Uint64
}

// probTrue estimates P(restraint passes) from observed stats (seeded at
// 0.5 before data accumulates).
func (b *boundRestraint) probTrue() float64 {
	evals := b.evals.Load()
	if evals < 32 {
		return 0.5
	}
	return float64(b.trues.Load()) / float64(evals)
}

// rank orders restraints for evaluation within a conjunction: evaluate the
// cheapest, most-likely-to-fail restraint first. A conjunction
// short-circuits on the first false, so the expected cost of a restraint
// scheduled first is cost/(1-P(true)) per pruned evaluation.
func (b *boundRestraint) rank() float64 {
	pFalse := 1 - b.probTrue()
	const eps = 1e-3
	return b.cost / (pFalse + eps)
}

// rule is a compiled if-statement: its conjunction in evaluation order,
// and the sampling applied when it holds.
type rule struct {
	code     []*boundRestraint
	passProb float64
}

// Project is a compiled Gatekeeper project: the program the runtime runs
// on every gk_check. A published []rule is never written again — a reorder
// publishes a copy — so checks from any number of goroutines share it;
// everything a check writes is an atomic counter.
type Project struct {
	Name string
	// die is the hash state after "$project:". A check's die extends it
	// with the user id's digits, which is byte for byte
	// stats.HashFloat(fmt.Sprintf("%s:%d", project, id)) without the string.
	die   stats.Hash
	rules atomic.Pointer[[]rule]

	// PassCount is the exposure statistic: checks answered true since
	// Compile. Check adds to it atomically; read it with
	// atomic.LoadUint64 while checks run.
	PassCount uint64
	checks    atomic.Uint64

	optimizeEvery uint64     // set before the project is shared
	reorder       sync.Mutex // one Optimize at a time
}

// Compile binds a spec's restraint names against the registry and resolves
// each instance's params, once, into its test.
func Compile(spec *ProjectSpec, reg *Registry) (*Project, error) {
	p := &Project{Name: spec.Project, die: stats.HashPrefix(spec.Project + ":"), optimizeEvery: 1024}
	rules := make([]rule, len(spec.Rules))
	for ri, rs := range spec.Rules {
		rules[ri].passProb = rs.PassProbability
		for _, inst := range rs.Restraints {
			impl, err := reg.Lookup(inst.Name)
			if err != nil {
				return nil, err
			}
			rules[ri].code = append(rules[ri].code,
				&boundRestraint{spec: inst, test: impl.bind(inst.Params), cost: impl.BaseCost})
		}
	}
	p.rules.Store(&rules)
	return p, nil
}

// Check is gk_check(project, user): walk the if-statements in order; the
// first rule whose conjunction holds casts the deterministic die.
func (p *Project) Check(u *User) bool { return p.run(u, nil) }

// run is the one evaluator: Check calls it with no explanation to fill,
// Explain with one.
func (p *Project) run(u *User, ex *Explanation) bool {
	if n := p.checks.Add(1); p.optimizeEvery > 0 && n%p.optimizeEvery == 0 {
		p.Optimize()
	}
next:
	for ri, rule := range *p.rules.Load() {
		for _, b := range rule.code {
			res := b.test(u) != b.spec.Negate
			b.evals.Add(1)
			if ex != nil {
				ex.step(ri, b, res)
			}
			if !res {
				continue next
			}
			b.trues.Add(1)
		}
		pass := sampled(p.die, u.ID, rule.passProb)
		if ex != nil {
			ex.matched(ri, p.die.Int(u.ID).Float(), rule.passProb)
		}
		if pass {
			atomic.AddUint64(&p.PassCount, 1)
		}
		return pass
	}
	return false
}

// sampled is the paper's rand($user_id) < $pass_prob with a determinism
// guarantee: the same (project, user) always lands on the same side for a
// given probability, and increasing the probability only adds users. die
// is the hash state after "$project:".
func sampled(die stats.Hash, userID int64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return die.Int(userID).Float() < p
}

// Optimize reorders each conjunction by the cost-based rank, like an SQL
// engine reordering predicates (§4): a stable sort, so equal ranks keep
// their order. A rule whose order changes is copied and the new program
// published; checks in flight finish on the old one. A call that moves
// nothing allocates nothing.
func (p *Project) Optimize() {
	p.reorder.Lock()
	defer p.reorder.Unlock()
	rules := *p.rules.Load()
	var next []rule // a copy of rules, made when the first rule changes
	for ri, r := range rules {
		if slices.IsSortedFunc(r.code, byRank) {
			continue
		}
		if next == nil {
			next = slices.Clone(rules)
		}
		next[ri].code = slices.Clone(r.code)
		slices.SortStableFunc(next[ri].code, byRank)
	}
	if next != nil {
		published := next // declared here so that only a publishing call allocates it
		p.rules.Store(&published)
	}
}

func byRank(a, b *boundRestraint) int { return cmp.Compare(a.rank(), b.rank()) }

// SetOptimizeInterval tunes (or, with 0, disables) periodic reordering.
// Call it before the project serves checks from other goroutines.
func (p *Project) SetOptimizeInterval(every uint64) { p.optimizeEvery = every }

// EvalOrder exposes the current evaluation order of rule i (tests).
func (p *Project) EvalOrder(rule int) []string {
	code := (*p.rules.Load())[rule].code
	out := make([]string, len(code))
	for i, b := range code {
		out[i] = b.spec.Name
	}
	return out
}

// RestraintEvals reports total restraint evaluations across rules — the
// work metric the optimizer minimizes.
func (p *Project) RestraintEvals() (n uint64) {
	p.each(func(b *boundRestraint) { n += b.evals.Load() })
	return n
}

// RestraintCost reports the total weighted evaluation cost.
func (p *Project) RestraintCost() (c float64) {
	p.each(func(b *boundRestraint) { c += float64(b.evals.Load()) * b.cost })
	return c
}

func (p *Project) each(f func(b *boundRestraint)) {
	for _, r := range *p.rules.Load() {
		for _, b := range r.code {
			f(b)
		}
	}
}
