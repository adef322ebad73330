package gatekeeper

import (
	"fmt"
	"slices"
	"time"

	"configerator/internal/laser"
)

// Params are a restraint instance's configuration values (decoded from the
// project's JSON config).
type Params map[string]interface{}

func (p Params) strings(key string) []string {
	switch v := p[key].(type) {
	case []string:
		return append([]string(nil), v...) // the program must not alias a caller's spec
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
		return append([]int64(nil), v...)
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
	// BaseCost is the relative evaluation cost used to seed the
	// cost-based optimizer (laser lookups dwarf attribute checks).
	BaseCost float64
	// bind resolves one instance's Params, once, into the test Check
	// runs: everything that depends on the config and not on the user
	// (string sets, thresholds, id lists, day-scaled durations) is done
	// here. The test reads its operands and the user, and allocates
	// nothing.
	bind func(p Params) test
}

// test is a bound restraint instance: one user in, the predicate's value out.
type test func(u *User) bool

// Registry maps restraint names to implementations. New restraints are
// added in code ("new restraints can be added quickly" — PHP rolls twice a
// day); everything else changes through config.
type Registry struct {
	byName map[string]*Restraint
}

// Lookup returns a restraint by name.
func (r *Registry) Lookup(name string) (*Restraint, error) {
	res, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("gatekeeper: unknown restraint %q", name)
	}
	return res, nil
}

func never(*User) bool { return false }

// NewRegistry returns a registry with every built-in restraint installed.
// The laser store may be nil if no laser() restraints are used.
func NewRegistry(ls *laser.Store) *Registry {
	r := &Registry{byName: make(map[string]*Restraint)}
	add := func(name string, cost float64, bind func(p Params) test) {
		r.byName[name] = &Restraint{Name: name, BaseCost: cost, bind: bind}
	}
	add("always", 0.1, func(Params) test { return func(*User) bool { return true } })
	add("employee", 1, func(Params) test { return func(u *User) bool { return u.Employee } })
	add("country", 1, func(p Params) test {
		in := p.strings("in")
		return func(u *User) bool { return slices.Contains(in, u.Country) }
	})
	add("region", 1, func(p Params) test {
		in := p.strings("in")
		return func(u *User) bool { return slices.Contains(in, u.Region) }
	})
	add("locale", 1, func(p Params) test {
		in := p.strings("in")
		return func(u *User) bool { return slices.Contains(in, u.Locale) }
	})
	add("app", 1, func(p Params) test {
		in := p.strings("in")
		return func(u *User) bool { return slices.Contains(in, u.App) }
	})
	add("platform", 1, func(p Params) test {
		in := p.strings("in")
		return func(u *User) bool { return slices.Contains(in, u.Platform) }
	})
	add("device_model", 1, func(p Params) test {
		in := p.strings("in")
		return func(u *User) bool { return slices.Contains(in, u.DeviceModel) }
	})
	add("app_version_at_least", 1, func(p Params) test {
		version := p.float("version", 0)
		return func(u *User) bool { return float64(u.AppVersion) >= version }
	})
	add("new_user", 1, func(p Params) test {
		max := time.Duration(p.float("max_days", 30)) * 24 * time.Hour
		return func(u *User) bool { return u.AccountAge <= max }
	})
	add("account_age_at_least_days", 1, func(p Params) test {
		min := time.Duration(p.float("days", 0)) * 24 * time.Hour
		return func(u *User) bool { return u.AccountAge >= min }
	})
	add("friend_count_at_least", 1, func(p Params) test {
		n := p.float("n", 0)
		return func(u *User) bool { return float64(u.FriendCount) >= n }
	})
	add("friend_count_at_most", 1, func(p Params) test {
		n := p.float("n", 0)
		return func(u *User) bool { return float64(u.FriendCount) <= n }
	})
	add("id_in", 2, func(p Params) test {
		ids := p.ints("ids")
		return func(u *User) bool { return slices.Contains(ids, u.ID) }
	})
	add("id_mod", 1, func(p Params) test {
		mod, buckets := int64(p.float("mod", 100)), p.ints("buckets")
		if mod <= 0 {
			return never
		}
		return func(u *User) bool { return slices.Contains(buckets, u.ID%mod) }
	})
	add("datetime_range", 1, func(p Params) test {
		after, before := int64(p.float("after_unix", 0)), int64(p.float("before_unix", 1<<62))
		return func(u *User) bool { t := u.Now.Unix(); return t >= after && t < before }
	})
	add("weekday", 1, func(p Params) test {
		in := p.strings("in")
		return func(u *User) bool { return slices.Contains(in, u.Now.Weekday().String()) }
	})
	add("hour_range", 1, func(p Params) test {
		from, to := p.float("from", 0), p.float("to", 24)
		return func(u *User) bool { h := float64(u.Now.Hour()); return h >= from && h < to }
	})
	// The key-value-store integration point: passes when
	// get("$project-$user_id") > threshold. Far more expensive than
	// attribute restraints — the optimizer should schedule it last.
	add("laser", 50, func(p Params) test {
		project, _ := p["project"].(string)
		threshold := p.float("threshold", 0)
		if ls == nil {
			return never
		}
		return func(u *User) bool { score, ok := ls.Get(project, u.ID); return ok && score > threshold }
	})
	return r
}
