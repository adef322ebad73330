package dataflow

import (
	"sort"
	"strings"
)

// Score weights. The score is deterministic on purpose — the same diff
// against the same tree always scores identically, so the landing-strip
// threshold and the review comment can never disagree.
const (
	// WeightArtifact scores each downstream artifact the change rebuilds.
	WeightArtifact = 1.0
	// WeightConsumer scores each consumer binding (a sitevar/gatekeeper/env
	// reference site) the change re-binds — consumers feel a bad value
	// directly, so they weigh more than artifacts.
	WeightConsumer = 2.0
	// WeightDomain scores each canary domain the rollout must cross.
	WeightDomain = 3.0
	// WeightRiskFlag is added per riskadvisor history flag when the
	// pipeline folds advisory history into the final score.
	WeightRiskFlag = 5.0
)

// Radius is pass 2's answer for one candidate diff: everything it can
// reach. Changed entries are source paths, or external-input tokens of the
// form "sitevar:name" / "gatekeeper:name" / "env:NAME".
type Radius struct {
	Changed []string `json:"changed"`
	// Artifacts are the downstream artifact sources (.cconf) whose
	// compiled output the change can alter, sorted.
	Artifacts []string `json:"artifacts"`
	// Consumers are the consumer bindings the change re-binds: external
	// input reference sites matching a changed input, plus any binding
	// sites physically inside a changed file.
	Consumers []ConsumerSite `json:"consumers"`
	// Domains are the canary domains the reached artifacts map to (filled
	// by the pipeline, whose one canary spec is "default"; empty in
	// standalone CLI use).
	Domains []string `json:"canary_domains,omitempty"`
	// Score is the deterministic reach score (WeightArtifact*artifacts +
	// WeightConsumer*consumers + WeightDomain*domains).
	Score float64 `json:"score"`
}

// Rescore recomputes Score from the current slices (the pipeline calls it
// after filling Domains).
func (rad *Radius) Rescore() {
	rad.Score = WeightArtifact*float64(len(rad.Artifacts)) +
		WeightConsumer*float64(len(rad.Consumers)) +
		WeightDomain*float64(len(rad.Domains))
}

// Radius computes the blast radius of a candidate diff: the inverse of the
// provenance map. An artifact is reached when a changed file is in its
// import closure, or a file in its closure reads a changed external input.
// The query walks up the snapshot's inverse indexes from what changed, so
// it costs the cone it reports and not the repository.
func (r *Repo) Radius(changed []string) *Radius {
	rad := &Radius{Changed: append([]string{}, changed...)}
	sort.Strings(rad.Changed)

	// Consumer bindings: sites matching a changed external input anywhere
	// in the universe, plus sites physically in a changed file. Both kinds
	// of file start the walk up to the artifacts.
	seenSite := make(map[ConsumerSite]bool)
	visited := make(map[string]bool)
	var queue []string
	// reach takes file's sites of the given input (every site when kind is
	// "") and queues file for the walk.
	reach := func(file string, kind OriginKind, name string) {
		s := r.sum(file)
		if s == nil {
			return
		}
		for _, c := range s.consumers {
			if (kind == "" || c.Kind == kind && c.Name == name) && !seenSite[c] {
				seenSite[c] = true
				rad.Consumers = append(rad.Consumers, c)
			}
		}
		if !visited[file] {
			visited[file] = true
			queue = append(queue, file)
		}
	}
	for _, c := range changed {
		kind, name, isExt := extToken(c)
		if !isExt {
			reach(c, "", "")
			// A file under sitevars/ or gatekeeper/ *is* that external input:
			// editing it also re-binds every consumer referencing the input
			// by name, wherever it lives.
			if kind, name = pathOrigin(c); kind == "" {
				continue
			}
		}
		files, _ := r.consumers.get(Origin{Kind: kind, Name: name}.key())
		for _, file := range files {
			reach(file, kind, name)
		}
	}
	sort.Slice(rad.Consumers, func(i, j int) bool {
		a, b := rad.Consumers[i], rad.Consumers[j]
		if a.Site.File != b.Site.File {
			return a.Site.File < b.Site.File
		}
		if a.Site.Line != b.Site.Line {
			return a.Site.Line < b.Site.Line
		}
		if a.Site.Col != b.Site.Col {
			return a.Site.Col < b.Site.Col
		}
		return a.Name < b.Name
	})

	// Downstream artifacts: the roots among the transitive importers.
	for len(queue) > 0 {
		file := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if r.isRoot(file) {
			rad.Artifacts = append(rad.Artifacts, file)
		}
		importers, _ := r.importers.get(file)
		for _, imp := range importers {
			if !visited[imp] {
				visited[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	sort.Strings(rad.Artifacts)

	rad.Rescore()
	r.ix.observeRadius(len(visited))
	return rad
}

// extToken parses "sitevar:name" / "gatekeeper:name" / "env:NAME" changed
// entries.
func extToken(s string) (OriginKind, string, bool) {
	prefix, name, ok := strings.Cut(s, ":")
	if !ok || name == "" {
		return "", "", false
	}
	if kind, ok := extKinds[prefix]; ok {
		return kind, name, true
	}
	return "", "", false
}
