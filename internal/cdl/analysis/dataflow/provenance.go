package dataflow

import (
	"fmt"
	"sort"
)

// Provenance is pass 1's answer for one artifact: the origin sites whose
// change can alter its compiled output, whole-artifact and per-field.
type Provenance struct {
	// Artifact is the root source path (.cconf).
	Artifact string `json:"artifact"`
	// Origins is the whole-artifact origin set: the semantic slice of the
	// winning export — its transitive references' declaration sites plus
	// every external input they read.
	Origins []Origin `json:"origins"`
	// Fields holds per-field origins when the winning export is a
	// struct/map literal (sorted by field name); empty otherwise.
	Fields []FieldProvenance `json:"fields,omitempty"`
	// Closure is every file in the artifact's import closure, sorted. Any
	// file here can alter the artifact by *adding* statements; Origins is
	// the tighter set that can alter it through existing dataflow.
	Closure []string `json:"closure"`
}

// FieldProvenance is one exported field's origin set.
type FieldProvenance struct {
	Field   string   `json:"field"`
	Origins []Origin `json:"origins"`
}

// Provenance computes the artifact's full origin map.
func (r *Repo) Provenance(root string) (*Provenance, error) {
	s := r.sum(root)
	if s == nil {
		return nil, fmt.Errorf("dataflow: %s was not analyzed", root)
	}
	p := &Provenance{Artifact: root}
	for f := range s.reach {
		p.Closure = append(p.Closure, f)
	}
	sort.Strings(p.Closure)
	if len(s.exports) == 0 {
		return p, nil
	}
	win := s.exports[len(s.exports)-1]
	p.Origins = r.origins(s, win.refs, win.exts, win.path)
	fields := make([]string, 0, len(win.fields))
	for name := range win.fields {
		fields = append(fields, name)
	}
	sort.Strings(fields)
	for _, name := range fields {
		fr := win.fields[name]
		p.Fields = append(p.Fields, FieldProvenance{
			Field:   name,
			Origins: r.origins(s, fr.refs, fr.exts, win.path),
		})
	}
	return p, nil
}

// Why answers `configlint why <artifact> <field>`: the origin sites that
// can alter one exported field ("" means the whole artifact).
func (r *Repo) Why(root, field string) ([]Origin, error) {
	p, err := r.Provenance(root)
	if err != nil {
		return nil, err
	}
	if field == "" {
		return p.Origins, nil
	}
	for _, f := range p.Fields {
		if f.Field == field {
			return f.Origins, nil
		}
	}
	have := make([]string, 0, len(p.Fields))
	for _, f := range p.Fields {
		have = append(have, f.Field)
	}
	return nil, fmt.Errorf("dataflow: %s exports no field %q (have %v)", root, field, have)
}

// origins walks the reference graph from a seed slice: every declaration
// site of every transitively referenced top-level name becomes a module
// origin, and every external input read along the way becomes a
// sitevar/gatekeeper/env origin. All sites of a name are included — the
// winning one determines the value today, but editing any site can change
// which one wins.
func (r *Repo) origins(s *summary, refs []string, exts []Origin, seedFile string) []Origin {
	out := make(map[string]Origin)
	add := func(o Origin) {
		if _, ok := out[o.key()]; !ok {
			out[o.key()] = o
		}
	}
	for _, o := range exts {
		add(o)
	}
	// The export site's own file is always an origin.
	add(Origin{Kind: OriginModule, Name: seedFile,
		Site: SiteRef{File: seedFile, Line: 1, Col: 1}})

	visited := make(map[string]bool)
	queue := append([]string{}, refs...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if visited[name] {
			continue
		}
		visited[name] = true
		b := s.bindings[name]
		if b == nil {
			continue // builtin or undefined; the lint suite owns the latter
		}
		for _, site := range b.sites {
			add(Origin{Kind: OriginModule, Name: site.path, Site: siteRef(site.pos)})
			for _, o := range site.exts {
				add(o)
			}
			queue = append(queue, site.refs...)
		}
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res := make([]Origin, 0, len(keys))
	for _, k := range keys {
		res = append(res, out[k])
	}
	// External inputs first, then module files, each alphabetical.
	sort.SliceStable(res, func(i, j int) bool {
		a, b := res[i], res[j]
		am, bm := a.Kind == OriginModule, b.Kind == OriginModule
		if am != bm {
			return !am
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Name < b.Name
	})
	return res
}
