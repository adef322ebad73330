package gatekeeper

import (
	"fmt"
	"time"

	"configerator/internal/laser"
)

// Params are a restraint instance's configuration values (decoded from the
// project's JSON config).
type Params map[string]interface{}

func (p Params) strings(key string) []string {
	switch v := p[key].(type) {
	case []string:
		return v
	case []interface{}:
		out := make([]string, 0, len(v))
		for _, e := range v {
			if s, ok := e.(string); ok {
				out = append(out, s)
			}
		}
		return out
	}
	return nil
}

func (p Params) float(key string, def float64) float64 {
	switch v := p[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return def
}

func (p Params) ints(key string) []int64 {
	switch v := p[key].(type) {
	case []int64:
		return v
	case []interface{}:
		out := make([]int64, 0, len(v))
		for _, e := range v {
			if f, ok := e.(float64); ok {
				out = append(out, int64(f))
			}
		}
		return out
	}
	return nil
}

// Restraint is a statically implemented predicate over a user. Projects
// compose restraint instances dynamically through configuration.
type Restraint struct {
	Name string
	// Check evaluates the predicate.
	Check func(u *User, p Params) bool
	// BaseCost is the relative evaluation cost used to seed the
	// cost-based optimizer (laser lookups dwarf attribute checks).
	BaseCost float64
}

// Registry maps restraint names to implementations. New restraints are
// added in code ("new restraints can be added quickly" — PHP rolls twice a
// day); everything else changes through config.
type Registry struct {
	byName map[string]*Restraint
	laser  *laser.Store
}

// NewRegistry returns a registry with every built-in restraint installed.
// The laser store may be nil if no laser() restraints are used.
func NewRegistry(ls *laser.Store) *Registry {
	r := &Registry{byName: make(map[string]*Restraint), laser: ls}
	r.installBuiltins()
	return r
}

// Register installs a custom restraint.
func (r *Registry) Register(res *Restraint) {
	r.byName[res.Name] = res
}

// Lookup returns a restraint by name.
func (r *Registry) Lookup(name string) (*Restraint, error) {
	res, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("gatekeeper: unknown restraint %q", name)
	}
	return res, nil
}

func inStrings(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

func (r *Registry) installBuiltins() {
	add := func(name string, cost float64, check func(u *User, p Params) bool) {
		r.Register(&Restraint{Name: name, BaseCost: cost, Check: check})
	}
	add("always", 0.1, func(u *User, p Params) bool { return true })
	add("employee", 1, func(u *User, p Params) bool { return u.Employee })
	add("country", 1, func(u *User, p Params) bool { return inStrings(p.strings("in"), u.Country) })
	add("region", 1, func(u *User, p Params) bool { return inStrings(p.strings("in"), u.Region) })
	add("locale", 1, func(u *User, p Params) bool { return inStrings(p.strings("in"), u.Locale) })
	add("app", 1, func(u *User, p Params) bool { return inStrings(p.strings("in"), u.App) })
	add("platform", 1, func(u *User, p Params) bool { return inStrings(p.strings("in"), u.Platform) })
	add("device_model", 1, func(u *User, p Params) bool {
		return inStrings(p.strings("in"), u.DeviceModel)
	})
	add("app_version_at_least", 1, func(u *User, p Params) bool {
		return float64(u.AppVersion) >= p.float("version", 0)
	})
	add("new_user", 1, func(u *User, p Params) bool {
		return u.AccountAge <= time.Duration(p.float("max_days", 30))*24*time.Hour
	})
	add("account_age_at_least_days", 1, func(u *User, p Params) bool {
		return u.AccountAge >= time.Duration(p.float("days", 0))*24*time.Hour
	})
	add("friend_count_at_least", 1, func(u *User, p Params) bool {
		return float64(u.FriendCount) >= p.float("n", 0)
	})
	add("friend_count_at_most", 1, func(u *User, p Params) bool {
		return float64(u.FriendCount) <= p.float("n", 0)
	})
	add("id_in", 2, func(u *User, p Params) bool {
		for _, id := range p.ints("ids") {
			if id == u.ID {
				return true
			}
		}
		return false
	})
	add("id_mod", 1, func(u *User, p Params) bool {
		mod := int64(p.float("mod", 100))
		if mod <= 0 {
			return false
		}
		bucket := u.ID % mod
		for _, b := range p.ints("buckets") {
			if b == bucket {
				return true
			}
		}
		return false
	})
	add("datetime_range", 1, func(u *User, p Params) bool {
		after := int64(p.float("after_unix", 0))
		before := int64(p.float("before_unix", 1<<62))
		t := u.Now.Unix()
		return t >= after && t < before
	})
	add("weekday", 1, func(u *User, p Params) bool {
		return inStrings(p.strings("in"), u.Now.Weekday().String())
	})
	add("hour_range", 1, func(u *User, p Params) bool {
		h := float64(u.Now.Hour())
		return h >= p.float("from", 0) && h < p.float("to", 24)
	})
	// The key-value-store integration point: passes when
	// get("$project-$user_id") > threshold. Far more expensive than
	// attribute restraints — the optimizer should schedule it last.
	add("laser", 50, func(u *User, p Params) bool {
		if r.laser == nil {
			return false
		}
		project, _ := p["project"].(string)
		score, ok := r.laser.Get(laser.UserKey(project, u.ID))
		return ok && score > p.float("threshold", 0)
	})
}
