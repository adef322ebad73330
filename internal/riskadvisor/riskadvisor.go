// Package riskadvisor implements the paper's proposed future work (§8):
// "flagging high-risk config updates based on historical data. … our data
// show that old configs do get updated … It would be helpful to
// automatically flag high-risk updates based on the past history, e.g., a
// dormant config is suddenly changed in an unusual way", and §6.2's "it
// would be helpful to automatically flag high-risk updates on these
// highly-shared configs" (the 727-author sitevar).
//
// The advisor learns each config's update history as changes land and
// assesses incoming updates against it. Flags are advisory: the pipeline
// posts them onto the review diff for the human reviewer, it does not
// block — consistent with the paper's empower-engineers culture (§6.6).
package riskadvisor

import (
	"fmt"
	"sort"
	"time"
)

// FlagKind classifies a risk signal.
type FlagKind string

// The risk signals.
const (
	// FlagDormantChange: a config untouched for a long time is suddenly
	// being changed.
	FlagDormantChange FlagKind = "dormant-config-changed"
	// FlagUnusualSize: the diff is far larger than this config's
	// historical updates.
	FlagUnusualSize FlagKind = "unusually-large-change"
	// FlagHighlyShared: the config has accumulated many distinct
	// co-authors; a mistake here has broad blast radius.
	FlagHighlyShared FlagKind = "highly-shared-config"
	// FlagNewAuthor: the author has never touched this config before
	// (combined with age, a common incident precursor).
	FlagNewAuthor FlagKind = "first-time-author"
)

// Flag is one advisory finding.
type Flag struct {
	Kind   FlagKind
	Path   string
	Detail string
}

// String renders the flag as a review comment line.
func (f Flag) String() string {
	return fmt.Sprintf("[risk:%s] %s: %s", f.Kind, f.Path, f.Detail)
}

// The thresholds, calibrated against the §6.2 distributions: 35% of configs
// go 300+ days untouched, ~50% of updates are two-line changes, and
// >50-author configs are the 0.2% tail.
const (
	// DormancyAge is how long without updates marks a config dormant.
	DormancyAge = 300 * 24 * time.Hour
	// sizeFactor flags an update larger than sizeFactor x the historical
	// median line change (and at least minLines).
	sizeFactor = 8
	minLines   = 20
	// sharedAuthors flags configs with at least this many co-authors.
	sharedAuthors = 20
	// sharedReach flags configs whose static blast radius (downstream
	// artifacts + consumer bindings, fed from the dataflow analysis via
	// SetReach) is at least this large — catching new-but-widely-imported
	// configs that have no author history yet.
	sharedReach = 25
)

// pathHistory is what the advisor remembers per config.
type pathHistory struct {
	created    time.Time
	lastUpdate time.Time
	updates    int
	authors    map[string]bool
	// perAuthor counts each author's updates; habitual updaters (a
	// config's owning automation, its maintainers) are exempt from the
	// shared-config and new-author signals.
	perAuthor map[string]int
	// lineSizes keeps recent update sizes for the median.
	lineSizes []int
}

// Advisor learns config histories and assesses changes.
type Advisor struct {
	paths map[string]*pathHistory
	// reach holds the latest static blast-radius size per path, fed by
	// the pipeline's dataflow pass — the forward-looking complement to
	// the backward-looking author history.
	reach map[string]int
}

// New returns an advisor with no history.
func New() *Advisor {
	return &Advisor{paths: make(map[string]*pathHistory), reach: make(map[string]int)}
}

// SetReach records a config's static blast-radius size (downstream
// artifacts plus consumer bindings). The pipeline refreshes it on every
// change that touches the path.
func (a *Advisor) SetReach(path string, size int) {
	a.reach[path] = size
}

// Reach reports the last recorded static blast-radius size for path.
func (a *Advisor) Reach(path string) int { return a.reach[path] }

// Observe records one landed update (create or modify).
func (a *Advisor) Observe(path, author string, lineChanges int, now time.Time) {
	h, ok := a.paths[path]
	if !ok {
		h = &pathHistory{created: now, lastUpdate: now,
			authors: make(map[string]bool), perAuthor: make(map[string]int)}
		a.paths[path] = h
	}
	h.updates++
	h.lastUpdate = now
	h.authors[author] = true
	h.perAuthor[author]++
	h.lineSizes = append(h.lineSizes, lineChanges)
	if len(h.lineSizes) > 64 {
		h.lineSizes = h.lineSizes[len(h.lineSizes)-64:]
	}
}

// Known reports whether the advisor has history for path.
func (a *Advisor) Known(path string) bool {
	_, ok := a.paths[path]
	return ok
}

// Authors reports the distinct-author count for path.
func (a *Advisor) Authors(path string) int {
	if h, ok := a.paths[path]; ok {
		return len(h.authors)
	}
	return 0
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]int, len(xs))
	copy(cp, xs)
	sort.Ints(cp)
	return cp[len(cp)/2]
}

// Assess evaluates a proposed update against the config's history and its
// static blast radius. A config with neither history nor recorded reach
// yields no flags — there is nothing to deviate from.
func (a *Advisor) Assess(path, author string, lineChanges int, now time.Time) []Flag {
	h := a.paths[path]
	var flags []Flag
	if h != nil {
		if dormant := now.Sub(h.lastUpdate); dormant >= DormancyAge {
			flags = append(flags, Flag{Kind: FlagDormantChange, Path: path,
				Detail: fmt.Sprintf("untouched for %d days (threshold %d)",
					int(dormant.Hours()/24), int(DormancyAge.Hours()/24))})
		}
		if med := medianInt(h.lineSizes); med > 0 && lineChanges >= minLines &&
			float64(lineChanges) >= sizeFactor*float64(med) {
			flags = append(flags, Flag{Kind: FlagUnusualSize, Path: path,
				Detail: fmt.Sprintf("%d line changes vs historical median %d", lineChanges, med)})
		}
	}
	// Highly-shared configs are only worth a flag when the update comes
	// from a non-habitual author — the config's owning automation updating
	// its own config thousands of times is business as usual. Sharing is
	// evidenced two ways: many historical co-authors, or a large static
	// blast radius — the latter catches a new-but-widely-imported config
	// long before it accumulates an author history.
	if h == nil || h.perAuthor[author] < 3 {
		switch {
		case h != nil && len(h.authors) >= sharedAuthors:
			flags = append(flags, Flag{Kind: FlagHighlyShared, Path: path,
				Detail: fmt.Sprintf("%d distinct co-authors and %s is not a regular updater",
					len(h.authors), author)})
		case a.reach[path] >= sharedReach:
			flags = append(flags, Flag{Kind: FlagHighlyShared, Path: path,
				Detail: fmt.Sprintf("statically reaches %d downstream artifacts/consumers (threshold %d) and %s is not a regular updater",
					a.reach[path], sharedReach, author)})
		}
	}
	if h != nil && !h.authors[author] && h.updates >= 3 {
		flags = append(flags, Flag{Kind: FlagNewAuthor, Path: path,
			Detail: fmt.Sprintf("%s has never updated this config (%d prior updates by others)",
				author, h.updates)})
	}
	return flags
}
