package gatekeeper

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Explanation is the answer to "why did this user pass (or fail) this
// gate?": the trace of one check, recorded by the evaluator Check itself
// runs.
type Explanation struct {
	Project string `json:"project"`
	UserID  int64  `json:"user_id"`
	// Rules holds every rule the check reached, in program order; the
	// last one is the rule that matched, if any did.
	Rules []RuleTrace `json:"rules"`
	// MatchedRule is the 1-based index of the rule whose conjunction
	// held, 0 when none did. Die and PassProbability are that rule's
	// sampling: the user passes when PassProbability is 1, or Die is
	// below it.
	MatchedRule     int     `json:"matched_rule"`
	Die             float64 `json:"die"`
	PassProbability float64 `json:"pass_probability"`
	Pass            bool    `json:"pass"`
}

// RuleTrace is one rule's restraints as far as the conjunction was
// evaluated: it stops at the first false.
type RuleTrace struct {
	Rule       int              `json:"rule"`
	Restraints []RestraintTrace `json:"restraints"`
}

// RestraintTrace is one evaluated restraint and its result, negation
// applied.
type RestraintTrace struct {
	Restraint string `json:"restraint"`
	Result    bool   `json:"result"`
}

func (ex *Explanation) step(ri int, b *boundRestraint, res bool) {
	if len(ex.Rules) == 0 || ex.Rules[len(ex.Rules)-1].Rule != ri+1 {
		ex.Rules = append(ex.Rules, RuleTrace{Rule: ri + 1})
	}
	label := restraintLabel(b.spec)
	if b.spec.Negate {
		label = "NOT " + label
	}
	tr := &ex.Rules[len(ex.Rules)-1]
	tr.Restraints = append(tr.Restraints, RestraintTrace{Restraint: label, Result: res})
}

func (ex *Explanation) matched(ri int, die, passProb float64) {
	ex.MatchedRule, ex.Die, ex.PassProbability = ri+1, die, passProb
}

// Explain runs one check — counted like any other — and returns its trace.
func (p *Project) Explain(u *User) *Explanation {
	ex := &Explanation{Project: p.Name, UserID: u.ID}
	ex.Pass = p.run(u, ex)
	return ex
}

// Text renders the explanation for an operator.
func (ex *Explanation) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "project %s, user %d\n", ex.Project, ex.UserID)
	for _, r := range ex.Rules {
		fmt.Fprintf(&b, "rule %d:\n", r.Rule)
		for _, s := range r.Restraints {
			fmt.Fprintf(&b, "  %-5v %s\n", s.Result, s.Restraint)
		}
	}
	switch {
	case ex.MatchedRule == 0:
		b.WriteString("no rule matched\n")
	case ex.PassProbability >= 1 || ex.PassProbability <= 0:
		fmt.Fprintf(&b, "rule %d matched: pass probability %g, no die cast\n", ex.MatchedRule, ex.PassProbability)
	default:
		cmp := "<"
		if !ex.Pass {
			cmp = ">="
		}
		fmt.Fprintf(&b, "rule %d matched: die %.6f %s pass probability %g\n", ex.MatchedRule, ex.Die, cmp, ex.PassProbability)
	}
	fmt.Fprintf(&b, "answer: %v\n", ex.Pass)
	return b.String()
}

// JSON renders the explanation in its deterministic machine form.
func (ex *Explanation) JSON() string {
	out, err := json.MarshalIndent(ex, "", "  ")
	if err != nil {
		panic("gatekeeper: encoding explanation: " + err.Error())
	}
	return string(out)
}

// ParseUser decodes a check's user from JSON: User's fields in snake_case,
// with account_age_days for AccountAge and RFC 3339 for now.
func ParseUser(data []byte) (*User, error) {
	var w struct {
		User
		AccountAgeDays float64 `json:"account_age_days"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("gatekeeper: parsing user: %w", err)
	}
	w.AccountAge = time.Duration(w.AccountAgeDays * float64(24*time.Hour))
	return &w.User, nil
}
