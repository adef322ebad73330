package gatekeeper

import (
	"fmt"
	"sort"
	"strings"
)

// DescribeChange renders a Gatekeeper config change as human-readable
// lines — the paper's footnote 1: the UI "converts a user's operations on
// the UI into a text file, e.g., 'Updated Employee sampling from 1% to
// 10%'. The text file … [is] submitted for code review." The pipeline
// attaches these lines to the review diff so reviewers see intent, not
// JSON.
func DescribeChange(oldSpec, newSpec *ProjectSpec) []string {
	var out []string
	if oldSpec == nil {
		out = append(out, fmt.Sprintf("Created project %q with %d rule(s)", newSpec.Project, len(newSpec.Rules)))
		for i, r := range newSpec.Rules {
			out = append(out, fmt.Sprintf("  rule %d: %s sampling at %s", i+1, ruleLabel(r), pct(r.PassProbability)))
		}
		return out
	}
	if newSpec == nil {
		return []string{fmt.Sprintf("Deleted project %q", oldSpec.Project)}
	}
	// Match rules by their restraint signature so probability tweaks on
	// an unchanged conjunction read as "Updated X sampling from a% to b%".
	oldBySig := map[string][]RuleSpec{}
	for _, r := range oldSpec.Rules {
		sig := ruleLabel(r)
		oldBySig[sig] = append(oldBySig[sig], r)
	}
	seen := map[string]int{}
	for _, r := range newSpec.Rules {
		sig := ruleLabel(r)
		idx := seen[sig]
		seen[sig]++
		if olds := oldBySig[sig]; idx < len(olds) {
			if olds[idx].PassProbability != r.PassProbability {
				out = append(out, fmt.Sprintf("Updated %s sampling from %s to %s",
					sig, pct(olds[idx].PassProbability), pct(r.PassProbability)))
			}
		} else {
			out = append(out, fmt.Sprintf("Added rule: %s sampling at %s", sig, pct(r.PassProbability)))
		}
	}
	for sig, olds := range oldBySig {
		if removed := len(olds) - seen[sig]; removed > 0 {
			out = append(out, fmt.Sprintf("Removed %d rule(s): %s", removed, sig))
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		out = append(out, "No semantic change")
	}
	return out
}

// ruleLabel summarizes a conjunction: "Employee AND country in [US, CA]".
func ruleLabel(r RuleSpec) string {
	if len(r.Restraints) == 0 {
		return "(empty rule)"
	}
	parts := make([]string, 0, len(r.Restraints))
	for _, rs := range r.Restraints {
		label := restraintLabel(rs)
		if rs.Negate {
			label = "NOT " + label
		}
		parts = append(parts, label)
	}
	return strings.Join(parts, " AND ")
}

func restraintLabel(rs RestraintSpec) string {
	var details []string
	keys := make([]string, 0, len(rs.Params))
	for k := range rs.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		details = append(details, fmt.Sprintf("%s=%v", k, rs.Params[k]))
	}
	if len(details) == 0 {
		return rs.Name
	}
	return fmt.Sprintf("%s(%s)", rs.Name, strings.Join(details, ", "))
}

func pct(p float64) string {
	return fmt.Sprintf("%g%%", p*100)
}
