// Package mobileconfig implements MobileConfig (§5): configuration
// management for mobile apps, where the network is a severe limiting
// factor, platforms are diverse, and legacy app versions linger for years.
//
// Separating abstraction from implementation is a first-class citizen: a
// mobile config field is an abstract name (FEATURE_X, VOIP_ECHO) that a
// translation layer maps to a backend — a Gatekeeper project, an A/B
// experiment, a Configerator constant, or an inline constant. The mapping
// itself is a config stored in Configerator and distributed to every
// translation server, so remapping a field (e.g. freezing a finished
// experiment to a constant) is just another config change.
//
// Clients poll with the hash of their config schema (for schema
// versioning) and the hash of their cached values; the server answers
// "not modified" or sends only the values relevant to that schema version.
// Push notification being unreliable, emergency changes are pushed as a
// hint that triggers an immediate pull — the hybrid of push and pull that
// makes the solution simple and reliable (§5).
package mobileconfig

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"configerator/internal/confclient"
	"configerator/internal/gatekeeper"
	"configerator/internal/stats"
)

// Backend kinds a field can map to.
const (
	BackendConstant     = "constant"
	BackendGatekeeper   = "gatekeeper"
	BackendExperiment   = "experiment"
	BackendConfigerator = "configerator"
)

// FieldBinding maps one abstract field to a backend.
type FieldBinding struct {
	Backend string `json:"backend"`
	// Gatekeeper/experiment: the project name.
	Project string `json:"project,omitempty"`
	// Experiment: variant values keyed by variant name, plus weights.
	Variants []Variant `json:"variants,omitempty"`
	// Configerator: the config path and field to read.
	Path  string `json:"path,omitempty"`
	Field string `json:"field,omitempty"`
	// Constant: the literal value.
	Value interface{} `json:"value,omitempty"`
}

// Variant is one experiment arm.
type Variant struct {
	Name   string      `json:"name"`
	Weight float64     `json:"weight"`
	Value  interface{} `json:"value"`
}

// Mapping is the translation table for one mobile config class.
type Mapping struct {
	Config string                  `json:"config"`
	Fields map[string]FieldBinding `json:"fields"`
}

// ParseMapping decodes a translation-table artifact.
func ParseMapping(data []byte) (*Mapping, error) {
	var m Mapping
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("mobileconfig: parsing mapping: %w", err)
	}
	if m.Config == "" {
		return nil, fmt.Errorf("mobileconfig: mapping missing \"config\"")
	}
	return &m, nil
}

// Encode renders the mapping artifact.
func (m *Mapping) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic("mobileconfig: encoding mapping: " + err.Error())
	}
	return b
}

// SchemaHash identifies the set of fields an app build knows about. Legacy
// versions keep polling with their old hash and keep working.
func SchemaHash(fields []string) uint64 {
	sorted := make([]string, len(fields))
	copy(sorted, fields)
	sort.Strings(sorted)
	h := uint64(0xcbf29ce484222325)
	for _, f := range sorted {
		h ^= stats.Hash64(f)
		h *= 0x100000001b3
	}
	return h
}

// ValueHash fingerprints a computed value set for the not-modified check.
func ValueHash(values map[string]interface{}) uint64 {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := uint64(0x100001b3)
	for _, k := range keys {
		b, _ := json.Marshal(values[k])
		h ^= stats.Hash64(k + "=" + string(b))
		h *= 0x100000001b3
	}
	return h
}

// Translator computes field values for a user by consulting the mapped
// backends. It lives on every translation server.
type Translator struct {
	mapping *Mapping
	gk      *gatekeeper.Runtime
	conf    *confclient.Client
	// schemas registers known app schema versions: hash -> field names.
	schemas map[uint64][]string

	// Translations counts value computations.
	Translations uint64
}

// NewTranslator builds a translator over the given backends (either may be
// nil if the mapping never references it).
func NewTranslator(gk *gatekeeper.Runtime, conf *confclient.Client) *Translator {
	return &Translator{gk: gk, conf: conf, schemas: make(map[uint64][]string)}
}

// LoadMapping installs (or live-replaces) the translation table.
func (t *Translator) LoadMapping(data []byte) error {
	m, err := ParseMapping(data)
	if err != nil {
		return err
	}
	t.mapping = m
	return nil
}

// Mapping returns the current table (nil before LoadMapping).
func (t *Translator) Mapping() *Mapping { return t.mapping }

// RegisterSchema registers an app build's field set; returns its hash.
// (Builds register at release time; the server must know every live
// schema version to serve legacy apps.)
func (t *Translator) RegisterSchema(fields []string) uint64 {
	h := SchemaHash(fields)
	cp := make([]string, len(fields))
	copy(cp, fields)
	sort.Strings(cp)
	t.schemas[h] = cp
	return h
}

// SchemaFields returns the fields of a registered schema.
func (t *Translator) SchemaFields(hash uint64) ([]string, bool) {
	f, ok := t.schemas[hash]
	return f, ok
}

// Translate computes the values for every field in the given schema
// version, consulting each field's backend. Unknown fields (mapped after
// the app shipped, or never mapped) are omitted; unknown schemas error.
func (t *Translator) Translate(schemaHash uint64, user *gatekeeper.User) (map[string]interface{}, error) {
	fields, ok := t.schemas[schemaHash]
	if !ok {
		return nil, fmt.Errorf("mobileconfig: unknown schema %x", schemaHash)
	}
	if t.mapping == nil {
		return nil, fmt.Errorf("mobileconfig: no mapping loaded")
	}
	t.Translations++
	out := make(map[string]interface{}, len(fields))
	for _, f := range fields {
		binding, ok := t.mapping.Fields[f]
		if !ok {
			continue
		}
		v, ok := t.resolve(f, binding, user)
		if ok {
			out[f] = v
		}
	}
	return out, nil
}

func (t *Translator) resolve(field string, b FieldBinding, user *gatekeeper.User) (interface{}, bool) {
	switch b.Backend {
	case BackendConstant:
		return b.Value, true
	case BackendGatekeeper:
		if t.gk == nil {
			return nil, false
		}
		return t.gk.Check(b.Project, user), true
	case BackendExperiment:
		return t.pickVariant(b, user)
	case BackendConfigerator:
		if t.conf == nil {
			return nil, false
		}
		cfg, err := t.conf.Get(context.Background(), b.Path)
		if err != nil {
			return nil, false
		}
		if b.Field == "" {
			return json.RawMessage(cfg.Raw), true
		}
		var all map[string]interface{}
		if err := json.Unmarshal(cfg.Raw, &all); err != nil {
			return nil, false
		}
		v, ok := all[b.Field]
		return v, ok
	}
	return nil, false
}

// pickVariant deterministically buckets the user across experiment arms by
// weight — the "satisfying different if-statements gives VOIP_ECHO a
// different parameter value" mechanism, with stable assignment.
func (t *Translator) pickVariant(b FieldBinding, user *gatekeeper.User) (interface{}, bool) {
	if len(b.Variants) == 0 {
		return nil, false
	}
	total := 0.0
	for _, v := range b.Variants {
		total += v.Weight
	}
	if total <= 0 {
		return nil, false
	}
	x := stats.HashPrefix("exp:"+b.Project+":").Int(user.ID).Float() * total
	acc := 0.0
	for _, v := range b.Variants {
		acc += v.Weight
		if x < acc {
			return v.Value, true
		}
	}
	return b.Variants[len(b.Variants)-1].Value, true
}
