package cdl

import (
	"fmt"
	"sort"
	"strings"
)

// Env is a lexically scoped binding environment.
type Env struct {
	parent *Env
	vars   map[string]Value
}

// NewEnv returns an environment chained to parent (nil for the root).
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, vars: make(map[string]Value)}
}

// Lookup resolves a name through the scope chain.
func (e *Env) Lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Define binds a name in this scope.
func (e *Env) Define(name string, v Value) { e.vars[name] = v }

// Set rebinds the nearest existing binding; false if the name is unbound.
func (e *Env) Set(name string, v Value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

// Names returns the names bound directly in this scope, sorted.
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.vars))
	for n := range e.vars {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// evaluator executes module statements.
type evaluator struct {
	schemas    map[string]*SchemaDef
	validators map[string][]*ValidatorStmt
	exported   Value
	hasExport  bool
	steps      int
	depth      int
}

// maxSteps bounds evaluation so a buggy config program cannot hang the
// compiler (a validator is production infrastructure, not a sandbox).
const maxSteps = 5_000_000

// maxDepth bounds call recursion so runaway recursion in a config program
// produces a compile error instead of exhausting the host stack.
const maxDepth = 500

type returnSignal struct{ v Value }

func (e *evaluator) tick(pos Pos) error {
	e.steps++
	if e.steps > maxSteps {
		return errf(pos, "evaluation exceeded %d steps (infinite loop?)", maxSteps)
	}
	return nil
}

func (e *evaluator) execBlock(stmts []Stmt, env *Env) (*returnSignal, error) {
	for _, st := range stmts {
		sig, err := e.exec(st, env)
		if err != nil || sig != nil {
			return sig, err
		}
	}
	return nil, nil
}

func (e *evaluator) exec(st Stmt, env *Env) (*returnSignal, error) {
	if err := e.tick(st.stmtPos()); err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *ImportStmt:
		// Imports are resolved by the compiler before evaluation.
		return nil, nil
	case *LetStmt:
		v, err := e.eval(s.Value, env)
		if err != nil {
			return nil, err
		}
		env.Define(s.Name, v)
		return nil, nil
	case *AssignStmt:
		v, err := e.eval(s.Value, env)
		if err != nil {
			return nil, err
		}
		if !env.Set(s.Name, v) {
			return nil, errf(s.Pos, "assignment to undefined variable %q (use let)", s.Name)
		}
		return nil, nil
	case *DefStmt:
		env.Define(s.Name, &Func{Name: s.Name, Params: s.Params, Body: s.Body, Closure: env})
		return nil, nil
	case *ValidatorStmt:
		e.validators[s.Schema] = append(e.validators[s.Schema], s)
		return nil, nil
	case *ExportStmt:
		v, err := e.eval(s.Value, env)
		if err != nil {
			return nil, err
		}
		// export_if_last semantics: the last export wins.
		e.exported = v
		e.hasExport = true
		return nil, nil
	case *AssertStmt:
		v, err := e.eval(s.Cond, env)
		if err != nil {
			return nil, err
		}
		if !Truthy(v) {
			msg := "assertion failed"
			if s.Message != nil {
				mv, err := e.eval(s.Message, env)
				if err != nil {
					return nil, err
				}
				msg = ToString(mv)
			}
			return nil, errf(s.Pos, "%s", msg)
		}
		return nil, nil
	case *IfStmt:
		c, err := e.eval(s.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(c) {
			return e.execBlock(s.Then, NewEnv(env))
		}
		return e.execBlock(s.Else, NewEnv(env))
	case *ForStmt:
		seq, err := e.eval(s.Seq, env)
		if err != nil {
			return nil, err
		}
		list, ok := seq.(List)
		if !ok {
			return nil, errf(s.Pos, "for expects a list, got %s", seq.TypeName())
		}
		for _, item := range list {
			scope := NewEnv(env)
			scope.Define(s.Var, item)
			sig, err := e.execBlock(s.Body, scope)
			if err != nil || sig != nil {
				return sig, err
			}
		}
		return nil, nil
	case *ReturnStmt:
		if s.Value == nil {
			return &returnSignal{v: Null{}}, nil
		}
		v, err := e.eval(s.Value, env)
		if err != nil {
			return nil, err
		}
		return &returnSignal{v: v}, nil
	case *ExprStmt:
		_, err := e.eval(s.X, env)
		return nil, err
	}
	return nil, errf(st.stmtPos(), "unknown statement %T", st)
}

func (e *evaluator) eval(x Expr, env *Env) (Value, error) {
	if err := e.tick(x.exprPos()); err != nil {
		return nil, err
	}
	switch ex := x.(type) {
	case *LitExpr:
		return ex.Val, nil
	case *IdentExpr:
		if v, ok := env.Lookup(ex.Name); ok {
			return v, nil
		}
		return nil, errf(ex.Pos, "undefined name %q", ex.Name)
	case *ListExpr:
		out := make(List, 0, len(ex.Elems))
		for _, el := range ex.Elems {
			v, err := e.eval(el, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case *MapExpr:
		out := make(Map, len(ex.Keys))
		for i := range ex.Keys {
			k, err := e.eval(ex.Keys[i], env)
			if err != nil {
				return nil, err
			}
			ks, ok := k.(Str)
			if !ok {
				return nil, errf(ex.Keys[i].exprPos(), "map key must be string, got %s", k.TypeName())
			}
			v, err := e.eval(ex.Values[i], env)
			if err != nil {
				return nil, err
			}
			out[string(ks)] = v
		}
		return out, nil
	case *StructExpr:
		if sd, ok := e.schemas[ex.Type]; ok {
			return e.buildStruct(ex, sd, env)
		}
		// Not a schema: maybe `x{...}` update syntax on a variable.
		if base, ok := env.Lookup(ex.Type); ok {
			return e.applyUpdate(ex.Pos, base, ex.Names, ex.Values, env)
		}
		return nil, errf(ex.Pos, "unknown schema %q", ex.Type)
	case *UpdateExpr:
		base, err := e.eval(ex.Base, env)
		if err != nil {
			return nil, err
		}
		return e.applyUpdate(ex.Pos, base, ex.Names, ex.Values, env)
	case *FieldExpr:
		base, err := e.eval(ex.Base, env)
		if err != nil {
			return nil, err
		}
		switch b := base.(type) {
		case *Struct:
			if v, ok := b.Fields[ex.Name]; ok {
				return v, nil
			}
			return nil, errf(ex.Pos, "%s has no field %q", b.Schema, ex.Name)
		case Map:
			if v, ok := b[ex.Name]; ok {
				return v, nil
			}
			return Null{}, nil
		}
		return nil, errf(ex.Pos, "cannot access field %q on %s", ex.Name, base.TypeName())
	case *IndexExpr:
		base, err := e.eval(ex.Base, env)
		if err != nil {
			return nil, err
		}
		idx, err := e.eval(ex.Index, env)
		if err != nil {
			return nil, err
		}
		switch b := base.(type) {
		case List:
			i, ok := idx.(Int)
			if !ok {
				return nil, errf(ex.Pos, "list index must be int, got %s", idx.TypeName())
			}
			if i < 0 || int(i) >= len(b) {
				return nil, errf(ex.Pos, "list index %d out of range [0,%d)", i, len(b))
			}
			return b[i], nil
		case Map:
			k, ok := idx.(Str)
			if !ok {
				return nil, errf(ex.Pos, "map key must be string, got %s", idx.TypeName())
			}
			if v, ok := b[string(k)]; ok {
				return v, nil
			}
			return Null{}, nil
		case Str:
			i, ok := idx.(Int)
			if !ok {
				return nil, errf(ex.Pos, "string index must be int")
			}
			if i < 0 || int(i) >= len(b) {
				return nil, errf(ex.Pos, "string index %d out of range", i)
			}
			return Str(b[i : i+1]), nil
		}
		return nil, errf(ex.Pos, "cannot index %s", base.TypeName())
	case *CallExpr:
		fn, err := e.eval(ex.Fn, env)
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := e.eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return e.call(ex.Pos, fn, args)
	case *UnaryExpr:
		v, err := e.eval(ex.X, env)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			switch n := v.(type) {
			case Int:
				return -n, nil
			case Float:
				return -n, nil
			}
			return nil, errf(ex.Pos, "cannot negate %s", v.TypeName())
		case "!":
			return Bool(!Truthy(v)), nil
		}
	case *BinaryExpr:
		return e.evalBinary(ex, env)
	case *CondExpr:
		c, err := e.eval(ex.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(c) {
			return e.eval(ex.A, env)
		}
		return e.eval(ex.B, env)
	}
	return nil, errf(x.exprPos(), "unknown expression %T", x)
}

// resolveFields returns a schema's full field list, base fields first,
// walking the inheritance chain. It rejects unknown bases, cycles, and
// fields redefined along the chain.
func (e *evaluator) resolveFields(pos Pos, sd *SchemaDef) ([]*FieldDef, error) {
	var chain []*SchemaDef
	seen := make(map[string]bool)
	for cur := sd; ; {
		if seen[cur.Name] {
			return nil, errf(pos, "schema inheritance cycle through %q", cur.Name)
		}
		seen[cur.Name] = true
		chain = append([]*SchemaDef{cur}, chain...)
		if cur.Extends == "" {
			break
		}
		base, ok := e.schemas[cur.Extends]
		if !ok {
			return nil, errf(pos, "schema %q extends unknown schema %q", cur.Name, cur.Extends)
		}
		cur = base
	}
	var fields []*FieldDef
	names := make(map[string]bool)
	for _, s := range chain {
		for _, f := range s.Fields {
			if names[f.Name] {
				return nil, errf(pos, "field %q redefined in schema %q inheritance chain", f.Name, sd.Name)
			}
			names[f.Name] = true
			fields = append(fields, f)
		}
	}
	return fields, nil
}

// lookupField resolves a field through the inheritance chain (nil when the
// schema has no such field).
func (e *evaluator) lookupField(pos Pos, sd *SchemaDef, name string) (*FieldDef, error) {
	fields, err := e.resolveFields(pos, sd)
	if err != nil {
		return nil, err
	}
	for _, f := range fields {
		if f.Name == name {
			return f, nil
		}
	}
	return nil, nil
}

func (e *evaluator) buildStruct(ex *StructExpr, sd *SchemaDef, env *Env) (Value, error) {
	s := &Struct{Schema: sd.Name, Fields: make(map[string]Value)}
	for i, name := range ex.Names {
		f, err := e.lookupField(ex.Pos, sd, name)
		if err != nil {
			return nil, err
		}
		if f == nil {
			return nil, errf(ex.Pos, "schema %s has no field %q", sd.Name, name)
		}
		v, err := e.eval(ex.Values[i], env)
		if err != nil {
			return nil, err
		}
		s.Fields[name] = v
	}
	return s, nil
}

func (e *evaluator) applyUpdate(pos Pos, base Value, names []string, values []Expr, env *Env) (Value, error) {
	switch b := base.(type) {
	case *Struct:
		out := CopyStruct(b)
		sd := e.schemas[b.Schema]
		for i, name := range names {
			if sd != nil {
				f, err := e.lookupField(pos, sd, name)
				if err != nil {
					return nil, err
				}
				if f == nil {
					return nil, errf(pos, "schema %s has no field %q", b.Schema, name)
				}
			}
			v, err := e.eval(values[i], env)
			if err != nil {
				return nil, err
			}
			out.Fields[name] = v
		}
		return out, nil
	case Map:
		out := make(Map, len(b)+len(names))
		for k, v := range b {
			out[k] = v
		}
		for i, name := range names {
			v, err := e.eval(values[i], env)
			if err != nil {
				return nil, err
			}
			out[name] = v
		}
		return out, nil
	}
	return nil, errf(pos, "cannot update fields on %s", base.TypeName())
}

func (e *evaluator) call(pos Pos, fn Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case *Builtin:
		return f.Fn(pos, args)
	case *Func:
		if len(args) != len(f.Params) {
			return nil, errf(pos, "%s expects %d args, got %d", f.Name, len(f.Params), len(args))
		}
		e.depth++
		defer func() { e.depth-- }()
		if e.depth > maxDepth {
			return nil, errf(pos, "call depth exceeded %d steps (runaway recursion?)", maxDepth)
		}
		scope := NewEnv(f.Closure)
		for i, p := range f.Params {
			scope.Define(p, args[i])
		}
		sig, err := e.execBlock(f.Body, scope)
		if err != nil {
			return nil, err
		}
		if sig != nil {
			return sig.v, nil
		}
		return Null{}, nil
	}
	return nil, errf(pos, "%s is not callable", fn.TypeName())
}

func (e *evaluator) evalBinary(ex *BinaryExpr, env *Env) (Value, error) {
	// Short-circuit logicals first.
	switch ex.Op {
	case "&&":
		x, err := e.eval(ex.X, env)
		if err != nil {
			return nil, err
		}
		if !Truthy(x) {
			return Bool(false), nil
		}
		y, err := e.eval(ex.Y, env)
		if err != nil {
			return nil, err
		}
		return Bool(Truthy(y)), nil
	case "||":
		x, err := e.eval(ex.X, env)
		if err != nil {
			return nil, err
		}
		if Truthy(x) {
			return Bool(true), nil
		}
		y, err := e.eval(ex.Y, env)
		if err != nil {
			return nil, err
		}
		return Bool(Truthy(y)), nil
	}
	x, err := e.eval(ex.X, env)
	if err != nil {
		return nil, err
	}
	y, err := e.eval(ex.Y, env)
	if err != nil {
		return nil, err
	}
	switch ex.Op {
	case "==":
		return Bool(Equal(x, y)), nil
	case "!=":
		return Bool(!Equal(x, y)), nil
	}
	// String ops.
	if xs, ok := x.(Str); ok {
		switch ex.Op {
		case "+":
			if ys, ok := y.(Str); ok {
				return xs + ys, nil
			}
			return nil, errf(ex.Pos, "cannot add string and %s (use str())", y.TypeName())
		case "<", "<=", ">", ">=":
			ys, ok := y.(Str)
			if !ok {
				return nil, errf(ex.Pos, "cannot compare string and %s", y.TypeName())
			}
			return compareResult(ex.Op, strings.Compare(string(xs), string(ys))), nil
		}
	}
	// List concatenation.
	if xl, ok := x.(List); ok && ex.Op == "+" {
		yl, ok := y.(List)
		if !ok {
			return nil, errf(ex.Pos, "cannot add list and %s", y.TypeName())
		}
		out := make(List, 0, len(xl)+len(yl))
		out = append(out, xl...)
		return append(out, yl...), nil
	}
	// Numeric ops.
	xi, xIsInt := x.(Int)
	yi, yIsInt := y.(Int)
	if xIsInt && yIsInt {
		switch ex.Op {
		case "+":
			return xi + yi, nil
		case "-":
			return xi - yi, nil
		case "*":
			return xi * yi, nil
		case "/":
			if yi == 0 {
				return nil, errf(ex.Pos, "division by zero")
			}
			return xi / yi, nil
		case "%":
			if yi == 0 {
				return nil, errf(ex.Pos, "modulo by zero")
			}
			return xi % yi, nil
		case "<", "<=", ">", ">=":
			switch {
			case xi < yi:
				return compareResult(ex.Op, -1), nil
			case xi > yi:
				return compareResult(ex.Op, 1), nil
			default:
				return compareResult(ex.Op, 0), nil
			}
		}
	}
	xf, xok := toFloat(x)
	yf, yok := toFloat(y)
	if xok && yok {
		switch ex.Op {
		case "+":
			return Float(xf + yf), nil
		case "-":
			return Float(xf - yf), nil
		case "*":
			return Float(xf * yf), nil
		case "/":
			if yf == 0 {
				return nil, errf(ex.Pos, "division by zero")
			}
			return Float(xf / yf), nil
		case "<", "<=", ">", ">=":
			switch {
			case xf < yf:
				return compareResult(ex.Op, -1), nil
			case xf > yf:
				return compareResult(ex.Op, 1), nil
			default:
				return compareResult(ex.Op, 0), nil
			}
		}
	}
	return nil, errf(ex.Pos, "invalid operands for %q: %s and %s", ex.Op, x.TypeName(), y.TypeName())
}

func compareResult(op string, cmp int) Bool {
	switch op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	panic(fmt.Sprintf("cdl: bad comparison op %q", op))
}

func toFloat(v Value) (float64, bool) {
	switch n := v.(type) {
	case Int:
		return float64(n), true
	case Float:
		return float64(n), true
	}
	return 0, false
}
