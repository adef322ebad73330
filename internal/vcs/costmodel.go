package vcs

import "time"

// CostModel charges virtual time for repository operations the way a real
// git server pays real time. The paper measured (Figure 13, sandbox stress
// test) that Configerator's maximum commit throughput decays from roughly
// 200+ commits/min on a small repository to a few tens per minute at a
// million files, "because the execution time of many git operations
// increases with the number of files in the repository and the depth of the
// git history"; the companion latency curve rises from fractions of a
// second to multiple seconds. The linear model below is calibrated to hit
// those endpoints.
type CostModel struct {
	// CommitBase is the fixed cost of a commit on a tiny repository.
	CommitBase time.Duration
	// PerFile is the marginal commit cost per file at head.
	PerFile time.Duration
	// PerCommitDepth is the marginal cost per 1000 commits of history.
	PerCommitDepth time.Duration
	// UpdateBase is the cost of bringing a stale clone up to date — the
	// "10s of seconds" the paper cites for `git pull` on a large repo.
	UpdateBase time.Duration
	// UpdatePerFile is the marginal update cost per file.
	UpdatePerFile time.Duration
}

// DefaultCostModel is calibrated against Figure 13: ~0.25 s per commit at
// near-zero files (≈240 commits/min) rising to ~6 s at 1,000,000 files
// (≈10 commits/min), and stale-clone updates costing tens of seconds at
// scale.
func DefaultCostModel() CostModel {
	return CostModel{
		CommitBase:     250 * time.Millisecond,
		PerFile:        5750 * time.Nanosecond, // +5.75 s per million files
		PerCommitDepth: 2 * time.Millisecond,   // per 1000 commits of history
		UpdateBase:     2 * time.Second,
		UpdatePerFile:  28 * time.Microsecond, // ~30 s at 1M files
	}
}

// CommitCost returns the time one commit takes on a repository with the
// given file count and history depth.
func (m CostModel) CommitCost(files, historyDepth int) time.Duration {
	return m.CommitBase +
		time.Duration(files)*m.PerFile +
		time.Duration(historyDepth/1000)*m.PerCommitDepth
}

// UpdateCost returns the time a stale working copy takes to update.
func (m CostModel) UpdateCost(files int) time.Duration {
	return m.UpdateBase + time.Duration(files)*m.UpdatePerFile
}
