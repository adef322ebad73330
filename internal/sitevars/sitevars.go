// Package sitevars implements Sitevars (§3.2): a shim layer on top of
// Configerator providing configurable name-value pairs for the frontend
// products. A sitevar's value is an expression (PHP in the paper, CDL
// here) edited through a UI without writing Python/Thrift config code.
//
// Because the value language is weakly typed, sitevars are more prone to
// configuration errors such as typos. A sitevar may have an explicit
// checker; for legacy sitevars without one, the tool automatically infers
// a data type from the value's history — including whether a string field
// is a JSON string, a timestamp string, or a general string — and warns
// the engineer when an update deviates from the inferred type.
package sitevars

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"configerator/internal/cdl"
)

// TypeClass is an inferred value type.
type TypeClass int

// Inferred types. StringJSON and StringTimestamp are refinements of
// StringGeneral, exactly as the paper describes the inference.
const (
	TypeUnknown TypeClass = iota
	TypeNull
	TypeBool
	TypeInt
	TypeFloat
	TypeStringGeneral
	TypeStringJSON
	TypeStringTimestamp
	TypeList
	TypeMap
)

// String names the type class.
func (t TypeClass) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeBool:
		return "bool"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeStringGeneral:
		return "string"
	case TypeStringJSON:
		return "json-string"
	case TypeStringTimestamp:
		return "timestamp-string"
	case TypeList:
		return "list"
	case TypeMap:
		return "map"
	}
	return "unknown"
}

// Classify infers the type class of a value.
func Classify(v cdl.Value) TypeClass {
	switch x := v.(type) {
	case cdl.Null:
		return TypeNull
	case cdl.Bool:
		return TypeBool
	case cdl.Int:
		return TypeInt
	case cdl.Float:
		return TypeFloat
	case cdl.Str:
		return classifyString(string(x))
	case cdl.List:
		return TypeList
	case cdl.Map:
		return TypeMap
	}
	return TypeUnknown
}

func classifyString(s string) TypeClass {
	if isTimestampString(s) {
		return TypeStringTimestamp
	}
	if isJSONString(s) {
		return TypeStringJSON
	}
	return TypeStringGeneral
}

func isJSONString(s string) bool {
	if len(s) == 0 {
		return false
	}
	switch s[0] {
	case '{', '[':
		return json.Valid([]byte(s))
	}
	return false
}

func isTimestampString(s string) bool {
	if _, err := time.Parse(time.RFC3339, s); err == nil {
		return true
	}
	if _, err := time.Parse("2006-01-02", s); err == nil {
		return true
	}
	// Unix seconds/millis in a plausible range (2001..2128).
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n > 1_000_000_000 && n < 5_000_000_000 {
			return true
		}
		if n > 1_000_000_000_000 && n < 5_000_000_000_000 {
			return true
		}
	}
	return false
}

// compatible reports whether an observed class conforms to an inferred
// one. General strings accept the refined string classes' values only in
// one direction: if history says "JSON string", a general string is a
// deviation; if history says "general string", any string conforms.
func compatible(inferred, observed TypeClass) bool {
	if inferred == observed {
		return true
	}
	if inferred == TypeStringGeneral {
		return observed == TypeStringJSON || observed == TypeStringTimestamp
	}
	if (inferred == TypeFloat && observed == TypeInt) ||
		(inferred == TypeInt && observed == TypeFloat) {
		return true // numeric widening in either direction is tolerated
	}
	return false
}

// Checker validates a sitevar value (the PHP checker of the paper).
type Checker func(v cdl.Value) error

// Sitevar is one name-value pair with its history-derived schema.
type Sitevar struct {
	Name string
	// Value is the current evaluated value; JSON its artifact form.
	Value cdl.Value
	JSON  []byte
	// top is the inferred class of the whole value; fields are the
	// inferred classes of map fields (when the value is a map).
	top     TypeClass
	fields  map[string]TypeClass
	checker Checker
	Updates int
}

// InferredType reports the inferred top-level class.
func (s *Sitevar) InferredType() TypeClass { return s.top }

// FieldType reports the inferred class of a map field.
func (s *Sitevar) FieldType(name string) TypeClass { return s.fields[name] }

// Store holds all sitevars.
type Store struct {
	vars map[string]*Sitevar
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{vars: make(map[string]*Sitevar)}
}

// Get returns a sitevar by name.
func (st *Store) Get(name string) (*Sitevar, bool) {
	sv, ok := st.vars[name]
	return sv, ok
}

// Len returns the number of sitevars.
func (st *Store) Len() int { return len(st.vars) }

// SetChecker attaches an explicit checker; it runs on every later update.
func (st *Store) SetChecker(name string, c Checker) {
	if sv, ok := st.vars[name]; ok {
		sv.checker = c
	} else {
		st.vars[name] = &Sitevar{Name: name, checker: c}
	}
}

// evaluate evaluates expr and runs name's checker and the history check on
// the result, recording nothing: it returns the value, its artifact JSON and
// the deviation warnings. The error is fatal (syntax error, checker
// failure); warnings report type deviations from the inferred history — the
// UI shows them to the engineer, who may proceed.
func (st *Store) evaluate(name, expr string) (v cdl.Value, js []byte, warnings []string, err error) {
	v, err = cdl.EvalExpr(expr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sitevars: %s: %w", name, err)
	}
	if sv, ok := st.vars[name]; ok {
		if sv.checker != nil {
			if cerr := sv.checker(v); cerr != nil {
				return nil, nil, nil, fmt.Errorf("sitevars: %s: checker: %w", name, cerr)
			}
		}
		warnings = sv.checkAgainstHistory(v)
	}
	s, err := cdl.MarshalJSON(v)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sitevars: %s: %w", name, err)
	}
	return v, []byte(s), warnings, nil
}

// record makes an evaluated value name's current one and folds it into the
// inferred schema.
func (st *Store) record(name string, v cdl.Value, js []byte) {
	sv, ok := st.vars[name]
	if !ok {
		sv = &Sitevar{Name: name}
		st.vars[name] = sv
	}
	sv.Value, sv.JSON = v, js
	sv.Updates++
	sv.learn(v)
}

// checkAgainstHistory produces deviation warnings against inferred types.
func (sv *Sitevar) checkAgainstHistory(v cdl.Value) []string {
	if sv.Updates == 0 {
		return nil // nothing learned yet
	}
	var warns []string
	cls := Classify(v)
	if !compatible(sv.top, cls) {
		warns = append(warns, fmt.Sprintf(
			"sitevar %s: value type %s deviates from inferred type %s",
			sv.Name, cls, sv.top))
	}
	if m, ok := v.(cdl.Map); ok && sv.top == TypeMap {
		for k, fv := range m {
			inferred, seen := sv.fields[k]
			if !seen {
				continue // new field: learned below
			}
			got := Classify(fv)
			if !compatible(inferred, got) {
				warns = append(warns, fmt.Sprintf(
					"sitevar %s: field %q type %s deviates from inferred type %s",
					sv.Name, k, got, inferred))
			}
		}
	}
	return warns
}

// learn folds the accepted value into the inferred schema. Conflicting
// observations generalize (e.g. JSON string then general string →
// general string; int then float → float).
func (sv *Sitevar) learn(v cdl.Value) {
	cls := Classify(v)
	sv.top = generalize(sv.top, cls, sv.Updates == 1)
	if m, ok := v.(cdl.Map); ok {
		if sv.fields == nil {
			sv.fields = make(map[string]TypeClass)
		}
		for k, fv := range m {
			prev, seen := sv.fields[k]
			fcls := Classify(fv)
			if !seen {
				sv.fields[k] = fcls
			} else {
				sv.fields[k] = generalize(prev, fcls, false)
			}
		}
	}
}

func generalize(prev, next TypeClass, first bool) TypeClass {
	if first || prev == next {
		return next
	}
	isString := func(t TypeClass) bool {
		return t == TypeStringGeneral || t == TypeStringJSON || t == TypeStringTimestamp
	}
	switch {
	case isString(prev) && isString(next):
		return TypeStringGeneral
	case (prev == TypeInt && next == TypeFloat) || (prev == TypeFloat && next == TypeInt):
		return TypeFloat
	default:
		return next // accept the engineer's override; future warns use it
	}
}
