package core

// Canonical stage names. These are the keys of ChangeReport.Timings, the
// suffixes of the registry's "stage.<name>" latency histograms, and the
// span names in a change's trace — one list instead of scattered string
// literals.
//
// StageLint and StageCompile are both part of pipeline stage 1: the lint
// timing covers static analysis alone, while the compile timing is
// measured from the same stage start and so includes it (the compile runs
// through the parse cache the lint warmed).
const (
	StageLint      = "lint"
	StageCompile   = "compile"
	StageReviewCI  = "review+ci"
	StageCanary    = "canary"
	StageCommit    = "commit"
	StagePropagate = "propagate"
)

// StageNames lists every canonical stage name in pipeline order. A full
// fleet run with canary enabled records a timing for each of these;
// StageCanary is absent when skipped and StagePropagate when no fleet is
// attached.
var StageNames = []string{
	StageLint, StageCompile, StageReviewCI, StageCanary, StageCommit, StagePropagate,
}
