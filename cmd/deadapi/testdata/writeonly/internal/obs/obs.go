// Package obs stands in for the registry whose writes the check follows.
package obs

type Registry struct{ m map[string]int64 }

func (r *Registry) Add(name string, delta int64) { r.m[name] += delta }
func (r *Registry) Observe(name string, d int64) { r.m[name] += d }
func (r *Registry) Get(name string) int64        { return r.m[name] }
