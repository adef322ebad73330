package core

import "fmt"

// Mutator is the programmatic config-change API of Figure 3: "config
// changes can also be initiated … programmatically by an automation tool
// invoking the APIs provided by the Mutator component". Traffic shifters,
// load-test drivers, and model publishers all go through here — which is
// why 89% of raw-config updates in §6.1 are tool-made, not hand-edited.
type Mutator struct {
	p *Pipeline
	// Tool is the automation identity recorded as the commit author.
	Tool string
	// Changes counts submitted mutations.
	Changes int
}

// NewMutator returns a mutator for an automation tool.
func NewMutator(p *Pipeline, tool string) *Mutator {
	return &Mutator{p: p, Tool: tool}
}

// SetRaw updates (or creates) a raw config. Automation changes run the
// same pipeline as human changes — review record, CI, canary — with an
// automation service account as the reviewer of record.
func (m *Mutator) SetRaw(path string, content []byte, opts ...Option) *ChangeReport {
	req := &ChangeRequest{
		Author:   m.Tool,
		Reviewer: "automation-oncall",
		Title:    fmt.Sprintf("[%s] update %s", m.Tool, path),
		Raws:     map[string][]byte{path: content},
	}
	for _, o := range opts {
		o(req)
	}
	m.Changes++
	return m.p.Submit(req)
}

// EditSource updates a config-as-code source file.
func (m *Mutator) EditSource(path string, content []byte, opts ...Option) *ChangeReport {
	req := &ChangeRequest{
		Author:   m.Tool,
		Reviewer: "automation-oncall",
		Title:    fmt.Sprintf("[%s] edit %s", m.Tool, path),
		Sources:  map[string][]byte{path: content},
	}
	for _, o := range opts {
		o(req)
	}
	m.Changes++
	return m.p.Submit(req)
}

// Delete removes a config.
func (m *Mutator) Delete(path string, opts ...Option) *ChangeReport {
	req := &ChangeRequest{
		Author:   m.Tool,
		Reviewer: "automation-oncall",
		Title:    fmt.Sprintf("[%s] delete %s", m.Tool, path),
		Deletes:  []string{path},
	}
	for _, o := range opts {
		o(req)
	}
	m.Changes++
	return m.p.Submit(req)
}

// Option tweaks a mutator-built request.
type Option func(*ChangeRequest)

// SkipCanary bypasses canary testing (emergency paths; use sparingly).
func SkipCanary() Option {
	return func(r *ChangeRequest) { r.SkipCanary = true }
}
