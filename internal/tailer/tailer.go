// Package tailer implements the Git Tailer (§3.4, Figure 3): it
// "continuously extracts config changes from the git repository and writes
// them to Zeus for distribution". Each repository in the partitioned
// namespace gets its own tailer (§3.6).
package tailer

import (
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

// PollInterval matches the paper's observed ~5 s tailer latency between a
// commit landing in the shared repository and the write reaching Zeus.
const PollInterval = 5 * time.Second

type msgTickTail struct{}

// Tailer is a simnet node that bridges one repository into Zeus.
type Tailer struct {
	id     simnet.NodeID
	net    *simnet.Network
	repo   *vcs.Repository
	client *zeus.Client
	cursor int
	// prefix maps repo paths to Zeus paths, e.g. "/configs/".
	prefix string
	// processing models the tailer's extraction cost on a large
	// repository — the ~5 s the paper attributes to "the git tailer takes
	// about 5 seconds to fetch config changes" (§6.3).
	processing time.Duration

	// WritesIssued counts Zeus writes submitted.
	WritesIssued int
	// onDelivered, if set, fires when a write commits in Zeus.
	onDelivered func(path string, zxid int64)

	// Obs, when set, records the round-trip of each Zeus write in the
	// "tailer.write_rtt" histogram (nil = no instrumentation).
	Obs *obs.Registry
}

// New creates a tailer node on the network.
func New(net *simnet.Network, id simnet.NodeID, placement simnet.Placement,
	repo *vcs.Repository, members []simnet.NodeID, prefix string) *Tailer {
	t := &Tailer{
		id:     id,
		net:    net,
		repo:   repo,
		client: zeus.NewClient(id, members),
		prefix: prefix,
	}
	net.AddNode(id, placement, t)
	net.SetTimer(id, PollInterval, msgTickTail{})
	return t
}

// SetProcessingDelay adds a fixed extraction cost between detecting new
// commits and writing them to Zeus (the paper's ~5 s git-fetch cost on a
// large repository).
func (t *Tailer) SetProcessingDelay(d time.Duration) { t.processing = d }

// OnDelivered registers a callback fired when a tailed write commits in
// Zeus (used by experiments to timestamp propagation).
func (t *Tailer) OnDelivered(fn func(path string, zxid int64)) { t.onDelivered = fn }

// OnRestart implements simnet.Restarter.
func (t *Tailer) OnRestart(ctx *simnet.Context) {
	ctx.SetTimer(PollInterval, msgTickTail{})
}

// HandleMessage implements simnet.Handler.
func (t *Tailer) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch msg.(type) {
	case msgTickTail:
		if t.processing > 0 && t.repo.CommitCount() > t.cursor {
			// Extraction takes time on a big repo; issue the writes when
			// it completes.
			t.net.After(t.processing, func() {
				ctx := simnet.MakeContext(t.net, t.id)
				t.poll(&ctx)
			})
		} else {
			t.poll(ctx)
		}
		ctx.SetTimer(PollInterval, msgTickTail{})
	default:
		// Zeus client replies and retry timers.
		t.client.HandleMessage(ctx, from, msg)
	}
}

// poll extracts commits past the cursor and writes each changed file to
// Zeus. Deletions propagate as Zeus deletes.
func (t *Tailer) poll(ctx *simnet.Context) {
	commits := t.repo.LogAfter(t.cursor)
	if len(commits) == 0 {
		return
	}
	store := t.repo.Store()
	for _, h := range commits {
		c, _ := store.Commit(h)
		parentTree := vcs.Tree{}
		if !c.Parent.IsZero() {
			pc, _ := store.Commit(c.Parent)
			parentTree, _ = store.Tree(pc.Tree)
		}
		tree, _ := store.Tree(c.Tree)
		// Byte order, so the writes of one commit are issued deterministically.
		for _, p := range vcs.ChangedPaths(parentTree, tree) {
			zpath := t.prefix + p
			issued := ctx.Now()
			done := func(path string) func(zeus.WriteResult) {
				return func(r zeus.WriteResult) {
					t.Obs.Observe("tailer.write_rtt", t.net.Now().Sub(issued))
					if t.onDelivered != nil {
						t.onDelivered(path, r.Zxid)
					}
				}
			}
			if h, ok := tree.Get(p); ok {
				data, _ := store.Blob(h)
				t.WritesIssued++
				t.client.Write(ctx, zpath, data, done(zpath))
			} else {
				t.WritesIssued++
				t.client.Delete(ctx, zpath, done(zpath))
			}
		}
	}
	t.cursor += len(commits)
}
