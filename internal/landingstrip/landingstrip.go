// Package landingstrip implements the Landing Strip (§3.6): the component
// that receives diffs from committers, serializes them first-come-first-
// served, and pushes them into the shared git repository on the
// committers' behalf.
//
// Without it, every engineer pays git's semantics: a push is rejected
// whenever the local clone is stale — even when the two diffs touch
// different files — forcing an expensive update (10s of seconds on a large
// repository) and a retry that may lose the race again. The strip lands
// stale-based diffs directly and rejects only true conflicts, in which case
// the committer must update and resolve.
package landingstrip

import (
	"time"

	"configerator/internal/vcs"
)

// Result reports one landed (or rejected) diff.
type Result struct {
	Hash   vcs.Hash
	Err    error
	Queued time.Duration // time spent waiting behind earlier diffs
	Work   time.Duration // commit execution time (cost model)
	Start  time.Time
	Finish time.Time
}

// Latency is the committer-visible end-to-end time.
func (r Result) Latency() time.Duration { return r.Queued + r.Work }

// Strip serializes commits into one repository. It does not own a clock;
// callers pass each diff's arrival time, which lets throughput experiments
// replay arbitrarily dense arrival processes.
type Strip struct {
	repo *vcs.Repository
	cost vcs.CostModel
	// busyUntil is when the strip finishes its current queue.
	busyUntil time.Time

	// Gate, when set, is consulted before a diff lands. A non-nil error
	// refuses the diff (counted in Rejected) without touching the
	// repository — the pipeline wires this to the configlint static
	// analyzer so that a change whose affected set lints dirty cannot
	// land, even when submitted to the strip directly, bypassing the
	// earlier pipeline stages.
	Gate func(d *vcs.Diff) error

	// Landed and Rejected count outcomes.
	Landed   int
	Rejected int
}

// New returns a strip in front of repo with the given cost model.
func New(repo *vcs.Repository, cost vcs.CostModel) *Strip {
	return &Strip{repo: repo, cost: cost}
}

// Repo returns the repository this strip lands into.
func (s *Strip) Repo() *vcs.Repository { return s.repo }

// Submit lands one diff arriving at the given time. Queueing, the cost
// model, and conflict rejection are all accounted.
func (s *Strip) Submit(d *vcs.Diff, arrival time.Time) Result {
	if s.Gate != nil {
		if err := s.Gate(d); err != nil {
			s.Rejected++
			return Result{Err: err, Start: arrival, Finish: arrival}
		}
	}
	start := arrival
	if s.busyUntil.After(start) {
		start = s.busyUntil
	}
	work := s.cost.CommitCost(s.repo.FileCount(), s.repo.CommitCount())
	finish := start.Add(work)
	s.busyUntil = finish
	h, err := s.repo.Land(d, finish)
	res := Result{
		Hash: h, Err: err,
		Queued: start.Sub(arrival), Work: work,
		Start: start, Finish: finish,
	}
	if err != nil {
		s.Rejected++
	} else {
		s.Landed++
	}
	return res
}

// DirectPush models the ablation baseline: an engineer pushing straight to
// the shared repository with git semantics. Each stale-base attempt costs a
// full working-copy update before the retry; the diff's base is refreshed
// on update (so a true conflict surfaces as vcs.ErrConflict). The returned
// attempts count includes the successful one.
func DirectPush(repo *vcs.Repository, cost vcs.CostModel, wc *vcs.WorkingCopy, message string, arrival time.Time) (Result, int) {
	now := arrival
	attempts := 0
	for {
		attempts++
		work := cost.CommitCost(repo.FileCount(), repo.CommitCount())
		now = now.Add(work)
		h, err := wc.Push(message, now)
		if err == nil {
			return Result{Hash: h, Work: now.Sub(arrival), Start: arrival, Finish: now}, attempts
		}
		// Push rejected: the clone is stale. Pay the update and retry —
		// the churn the landing strip exists to eliminate.
		now = now.Add(cost.UpdateCost(repo.FileCount()))
		if uerr := wc.Update(); uerr != nil {
			return Result{Err: uerr, Start: arrival, Finish: now}, attempts
		}
	}
}
