// Promotion gating: a PackageVessel tag move (latest/canary/prod) is an
// explicit metadata write — a TagRecord landed through the strip like any
// other config change. The gate refuses records that name unpublished
// versions, malformed records, and prod promotions that skip the canary
// stage, so the repository never holds a tag pointing at content the
// registry cannot serve.
package landingstrip

import (
	"fmt"

	"configerator/internal/packagevessel"
	"configerator/internal/vcs"
)

// PromotionRules answers the two questions a tag move raises, typically
// wired to a packagevessel.Registry (Exists -> HasVersion, Current ->
// CurrentTag). Kept as funcs so the gate does not force a registry
// dependency on every strip.
type PromotionRules struct {
	// Exists reports whether (name, version) has been published.
	Exists func(name string, version int64) bool
	// Current returns the version a tag currently points at.
	Current func(name, tag string) (int64, bool)
}

// RulesFor wires the gate to a live registry.
func RulesFor(r *packagevessel.Registry) PromotionRules {
	return PromotionRules{Exists: r.HasVersion, Current: r.CurrentTag}
}

// Gate validates every tag-record path a diff touches. Non-tag paths pass
// untouched; deletions of tag records are refused (a tag is moved, never
// removed, so rollback history stays navigable).
func (pr PromotionRules) Gate(d *vcs.Diff) error {
	for _, c := range d.Changes {
		name, tag, ok := packagevessel.ParseTagPath(c.Path)
		if !ok {
			continue
		}
		if c.Delete || c.Content == nil {
			return fmt.Errorf("landingstrip: %s: tag records are moved, not deleted", c.Path)
		}
		rec, err := packagevessel.ParseTagRecord(c.Content)
		if err != nil {
			return fmt.Errorf("landingstrip: %s: %w", c.Path, err)
		}
		if rec.Name != name || rec.Tag != tag {
			return fmt.Errorf("landingstrip: %s: record names %s/%s, path says %s/%s",
				c.Path, rec.Name, rec.Tag, name, tag)
		}
		if pr.Exists != nil && !pr.Exists(rec.Name, rec.Version) {
			return fmt.Errorf("landingstrip: %s: version %d is not published", c.Path, rec.Version)
		}
		if rec.Tag == "prod" && pr.Current != nil {
			canary, ok := pr.Current(rec.Name, "canary")
			if !ok || canary != rec.Version {
				return fmt.Errorf("landingstrip: %s: prod requires version %d to be the current canary (staged rollout)",
					c.Path, rec.Version)
			}
		}
	}
	return nil
}
