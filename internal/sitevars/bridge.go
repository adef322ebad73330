package sitevars

import (
	"fmt"
	"unicode/utf8"

	"configerator/internal/core"
)

// Bridge stores sitevars through the Configerator pipeline — the shim-
// layer arrangement of §3.2 and Figure 1: Sitevars provides the easy
// name-value UI, Configerator underneath provides version control, review,
// canary, and distribution. Each sitevar becomes a raw JSON artifact under
// sitevars/<name>.json, so the frontend reads it through the ordinary
// client library.
type Bridge struct {
	store    *Store
	pipeline *core.Pipeline
	// PathPrefix locates sitevar artifacts in the repository namespace.
	PathPrefix string
}

// NewBridge wires a sitevar store onto a pipeline.
func NewBridge(p *core.Pipeline) *Bridge {
	return &Bridge{store: NewStore(), pipeline: p, PathPrefix: "sitevars/"}
}

// Store exposes the underlying sitevar store (checkers, inference).
func (b *Bridge) Store() *Store { return b.store }

// ArtifactPath maps a sitevar name to its repository path.
func (b *Bridge) ArtifactPath(name string) string {
	return b.PathPrefix + name + ".json"
}

// ZeusPath maps a sitevar name to its distribution path.
func (b *Bridge) ZeusPath(name string) string {
	return core.ZeusPath(b.ArtifactPath(name))
}

// SetResult reports one UI update.
type SetResult struct {
	// Warnings are the type-inference deviations shown in the UI.
	Warnings []string
	// Report is the pipeline's account (review, canary, landing).
	Report *core.ChangeReport
}

// Set evaluates the expression, runs the checker and type inference, and
// submits the resulting JSON through the full pipeline. The engineer sees
// warnings but they do not block (the paper's UI behaviour); a checker
// failure or a pipeline rejection does. The store records the value, and
// learns its types, only once the change has landed: a refused change
// leaves the sitevar's history as it was.
func (b *Bridge) Set(name, expr, author, reviewer string, opts ...core.Option) (*SetResult, error) {
	v, js, warnings, err := b.store.evaluate(name, expr)
	if err != nil {
		return nil, err
	}
	req := &core.ChangeRequest{
		Author:   author,
		Reviewer: reviewer,
		Title:    fmt.Sprintf("sitevar %s = %s", name, truncate(expr, 60)),
		Raws:     map[string][]byte{b.ArtifactPath(name): js},
	}
	for _, o := range opts {
		o(req)
	}
	report := b.pipeline.Submit(req)
	res := &SetResult{Warnings: warnings, Report: report}
	if !report.OK() {
		return res, fmt.Errorf("sitevars: %s blocked at %s: %w", name, report.FailedStage, report.Err)
	}
	b.store.record(name, v, js)
	return res, nil
}

// truncate shortens s to at most n bytes, ending in "...", without cutting
// a UTF-8 sequence.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	cut := n - 3
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "..."
}
