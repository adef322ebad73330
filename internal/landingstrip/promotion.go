// Promotion gating: a PackageVessel tag move (latest/canary/prod) is an
// explicit metadata write — a packagevessel.TagRecord landed through the
// strip like any other config change. The gate refuses records that name
// unpublished versions, malformed records, and prod promotions that skip the
// canary stage, so the repository never holds a tag pointing at content the
// registry cannot serve.
package landingstrip

import (
	"fmt"

	"configerator/internal/packagevessel"
	"configerator/internal/vcs"
)

// PromotionGate returns the strip gate for tag moves against a live registry.
// It validates every tag-record path a diff touches by the registry's rules
// (Registry.CheckTag). Non-tag paths pass untouched; deletions of tag records
// are refused (a tag is moved, never removed, so rollback history stays
// navigable).
func PromotionGate(reg *packagevessel.Registry) func(d *vcs.Diff) error {
	return func(d *vcs.Diff) error {
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
			switch _, err := reg.CheckTag(rec.Name, rec.Tag, rec.Version); err {
			case packagevessel.ErrUnpublished:
				return fmt.Errorf("landingstrip: %s: version %d is not published", c.Path, rec.Version)
			case packagevessel.ErrNotCanary:
				return fmt.Errorf("landingstrip: %s: prod requires version %d to be the current canary (staged rollout)",
					c.Path, rec.Version)
			}
		}
		return nil
	}
}
