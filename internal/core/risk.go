package core

import (
	"sort"

	"configerator/internal/riskadvisor"
	"configerator/internal/vcs"
)

// changedArtifacts enumerates the repository paths a request touches with
// their new contents (sources, compiled artifacts, and raws).
func changedArtifacts(req *ChangeRequest, report *ChangeReport) map[string][]byte {
	out := make(map[string][]byte, len(req.Sources)+len(report.Compiled)+len(req.Raws))
	for path, data := range req.Sources {
		out[path] = data
	}
	for path, data := range report.Compiled {
		out[path] = data
	}
	for path, data := range req.Raws {
		out[path] = data
	}
	return out
}

// lineDelta measures the update size the way Table 2 counts it: the line
// diff between the repository's current contents and the proposed ones.
func (p *Pipeline) lineDelta(path string, proposed []byte) int {
	current, err := p.Repos.ReadFile(path)
	if err != nil {
		current = nil // new file: every line is an addition
	}
	return vcs.DiffLines(current, proposed).Total()
}

// assessRisk runs the advisor over every touched path. The line deltas are
// computed against pre-land repository contents and cached on the report
// so observeRisk can reuse them after the change lands.
func (p *Pipeline) assessRisk(req *ChangeRequest, report *ChangeReport) []riskadvisor.Flag {
	if p.Risk == nil {
		return nil
	}
	if report.lineDeltas == nil {
		report.lineDeltas = make(map[string]int)
	}
	changed := changedArtifacts(req, report)
	paths := make([]string, 0, len(changed))
	for path := range changed {
		paths = append(paths, path)
	}
	sort.Strings(paths) // RiskFlags and the review comments come out in this order
	var flags []riskadvisor.Flag
	for _, path := range paths {
		delta := p.lineDelta(path, changed[path])
		report.lineDeltas[path] = delta
		flags = append(flags, p.Risk.Assess(path, req.Author, delta, p.Now())...)
	}
	return flags
}

// observeRisk feeds the landed change back into the advisor's history.
func (p *Pipeline) observeRisk(req *ChangeRequest, report *ChangeReport) {
	if p.Risk == nil {
		return
	}
	for path := range changedArtifacts(req, report) {
		p.Risk.Observe(path, req.Author, report.lineDeltas[path], p.Now())
	}
}
