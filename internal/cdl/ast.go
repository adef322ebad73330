package cdl

// ---- Types (thrift-like schema type expressions) ----

// TypeExpr is a schema type: a scalar, list<T>, map<string,T>, or a named
// struct type.
type TypeExpr struct {
	Kind TypeKind
	Elem *TypeExpr // list element / map value
	Name string    // struct type name for KindStruct
	Pos  Pos
	End  Pos
}

// TypeKind enumerates schema types.
type TypeKind int

// Schema type kinds.
const (
	KindBool TypeKind = iota
	KindI32
	KindI64
	KindDouble
	KindString
	KindList
	KindMap
	KindStruct
)

// String renders the type in thrift-like syntax.
func (t *TypeExpr) String() string {
	switch t.Kind {
	case KindBool:
		return "bool"
	case KindI32:
		return "i32"
	case KindI64:
		return "i64"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindList:
		return "list<" + t.Elem.String() + ">"
	case KindMap:
		return "map<string, " + t.Elem.String() + ">"
	case KindStruct:
		return t.Name
	}
	return "?"
}

// FieldDef is one schema field: `2: i32 priority = 0;`.
type FieldDef struct {
	ID      int
	Type    *TypeExpr
	Name    string
	Default Expr // nil if none
	Pos     Pos
	End     Pos
}

// SchemaDef is a thrift-like struct schema. Extends names an optional base
// schema whose fields (and validators) are inherited — the config
// inheritance the paper lists as future work (§8).
type SchemaDef struct {
	Name    string
	Extends string
	Fields  []*FieldDef
	Pos     Pos
	End     Pos
}

// ---- Expressions ----

// Expr is any expression node. Every node carries its start position and
// its end position (one past the final character of its source text).
type Expr interface {
	exprPos() Pos
	exprEnd() Pos
}

// LitExpr is a literal: int, float, string, bool, or null.
type LitExpr struct {
	Pos Pos
	End Pos
	Val Value // pre-built runtime value
}

// IdentExpr references a binding.
type IdentExpr struct {
	Pos  Pos
	End  Pos
	Name string
}

// ListExpr is a list literal.
type ListExpr struct {
	Pos   Pos
	End   Pos
	Elems []Expr
}

// MapExpr is a map literal {key: value, ...}; keys are expressions that
// must evaluate to strings.
type MapExpr struct {
	Pos    Pos
	End    Pos
	Keys   []Expr
	Values []Expr
}

// StructExpr constructs a struct: Job{name: "x"}.
type StructExpr struct {
	Pos    Pos
	End    Pos
	Type   string
	Names  []string
	Values []Expr
}

// UpdateExpr is a struct-update: base{field: v} producing a modified copy.
type UpdateExpr struct {
	Pos    Pos
	End    Pos
	Base   Expr
	Names  []string
	Values []Expr
}

// FieldExpr accesses a struct field or map key: e.name.
type FieldExpr struct {
	Pos  Pos
	End  Pos
	Base Expr
	Name string
}

// IndexExpr indexes a list or map: e[i].
type IndexExpr struct {
	Pos   Pos
	End   Pos
	Base  Expr
	Index Expr
}

// CallExpr invokes a function: f(a, b).
type CallExpr struct {
	Pos  Pos
	End  Pos
	Fn   Expr
	Args []Expr
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	Pos Pos
	End Pos
	Op  string
	X   Expr
}

// BinaryExpr is x op y. Pos is the operator position (error messages point
// at the operator); the full source range is X's start to Y's end.
type BinaryExpr struct {
	Pos  Pos
	End  Pos
	Op   string
	X, Y Expr
}

// CondExpr is cond ? a : b.
type CondExpr struct {
	Pos        Pos
	End        Pos
	Cond, A, B Expr
}

func (e *LitExpr) exprPos() Pos    { return e.Pos }
func (e *IdentExpr) exprPos() Pos  { return e.Pos }
func (e *ListExpr) exprPos() Pos   { return e.Pos }
func (e *MapExpr) exprPos() Pos    { return e.Pos }
func (e *StructExpr) exprPos() Pos { return e.Pos }
func (e *UpdateExpr) exprPos() Pos { return e.Pos }
func (e *FieldExpr) exprPos() Pos  { return e.Pos }
func (e *IndexExpr) exprPos() Pos  { return e.Pos }
func (e *CallExpr) exprPos() Pos   { return e.Pos }
func (e *UnaryExpr) exprPos() Pos  { return e.Pos }
func (e *BinaryExpr) exprPos() Pos { return e.Pos }
func (e *CondExpr) exprPos() Pos   { return e.Pos }

func (e *LitExpr) exprEnd() Pos    { return e.End }
func (e *IdentExpr) exprEnd() Pos  { return e.End }
func (e *ListExpr) exprEnd() Pos   { return e.End }
func (e *MapExpr) exprEnd() Pos    { return e.End }
func (e *StructExpr) exprEnd() Pos { return e.End }
func (e *UpdateExpr) exprEnd() Pos { return e.End }
func (e *FieldExpr) exprEnd() Pos  { return e.End }
func (e *IndexExpr) exprEnd() Pos  { return e.End }
func (e *CallExpr) exprEnd() Pos   { return e.End }
func (e *UnaryExpr) exprEnd() Pos  { return e.End }
func (e *BinaryExpr) exprEnd() Pos { return e.End }
func (e *CondExpr) exprEnd() Pos   { return e.End }

// ExprPos returns the expression's start position.
func ExprPos(e Expr) Pos { return e.exprPos() }

// ExprEnd returns the position one past the expression's last character.
func ExprEnd(e Expr) Pos { return e.exprEnd() }

// ---- Statements ----

// Stmt is any statement node. Like expressions, statements carry an
// accurate start and end position.
type Stmt interface {
	stmtPos() Pos
	stmtEnd() Pos
}

// ImportStmt pulls every top-level binding of another module into scope.
type ImportStmt struct {
	Pos  Pos
	End  Pos
	Path string
	// PathPos/PathEnd delimit the quoted path literal, so diagnostics about
	// the import target can point at the string rather than the keyword.
	PathPos Pos
	PathEnd Pos
}

// LetStmt binds (or rebinds) a name.
type LetStmt struct {
	Pos   Pos
	End   Pos
	Name  string
	Value Expr
	// NamePos/NameEnd delimit the bound identifier.
	NamePos Pos
	NameEnd Pos
}

// AssignStmt rebinds an existing name (x = expr).
type AssignStmt struct {
	Pos   Pos
	End   Pos
	Name  string
	Value Expr
}

// DefStmt defines a function.
type DefStmt struct {
	Pos    Pos
	End    Pos
	Name   string
	Params []string
	Body   []Stmt
	// NamePos/NameEnd delimit the function name.
	NamePos Pos
	NameEnd Pos
}

// ValidatorStmt registers an invariant checker for a schema type.
type ValidatorStmt struct {
	Pos    Pos
	End    Pos
	Schema string
	Param  string
	Body   []Stmt
}

// ExportStmt marks the module's exported config value.
type ExportStmt struct {
	Pos   Pos
	End   Pos
	Value Expr
}

// AssertStmt checks an invariant.
type AssertStmt struct {
	Pos     Pos
	End     Pos
	Cond    Expr
	Message Expr // optional
}

// IfStmt is if/else.
type IfStmt struct {
	Pos  Pos
	End  Pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ForStmt iterates a list: for x in expr { ... }.
type ForStmt struct {
	Pos  Pos
	End  Pos
	Var  string
	Seq  Expr
	Body []Stmt
}

// ReturnStmt returns from a def.
type ReturnStmt struct {
	Pos   Pos
	End   Pos
	Value Expr // nil means return null
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	Pos Pos
	End Pos
	X   Expr
}

func (s *ImportStmt) stmtPos() Pos    { return s.Pos }
func (s *LetStmt) stmtPos() Pos       { return s.Pos }
func (s *AssignStmt) stmtPos() Pos    { return s.Pos }
func (s *DefStmt) stmtPos() Pos       { return s.Pos }
func (s *ValidatorStmt) stmtPos() Pos { return s.Pos }
func (s *ExportStmt) stmtPos() Pos    { return s.Pos }
func (s *AssertStmt) stmtPos() Pos    { return s.Pos }
func (s *IfStmt) stmtPos() Pos        { return s.Pos }
func (s *ForStmt) stmtPos() Pos       { return s.Pos }
func (s *ReturnStmt) stmtPos() Pos    { return s.Pos }
func (s *ExprStmt) stmtPos() Pos      { return s.Pos }

func (s *ImportStmt) stmtEnd() Pos    { return s.End }
func (s *LetStmt) stmtEnd() Pos       { return s.End }
func (s *AssignStmt) stmtEnd() Pos    { return s.End }
func (s *DefStmt) stmtEnd() Pos       { return s.End }
func (s *ValidatorStmt) stmtEnd() Pos { return s.End }
func (s *ExportStmt) stmtEnd() Pos    { return s.End }
func (s *AssertStmt) stmtEnd() Pos    { return s.End }
func (s *IfStmt) stmtEnd() Pos        { return s.End }
func (s *ForStmt) stmtEnd() Pos       { return s.End }
func (s *ReturnStmt) stmtEnd() Pos    { return s.End }
func (s *ExprStmt) stmtEnd() Pos      { return s.End }

// StmtPos returns the statement's start position.
func StmtPos(s Stmt) Pos { return s.stmtPos() }

// StmtEnd returns the position one past the statement's last character.
func StmtEnd(s Stmt) Pos { return s.stmtEnd() }

// Module is a parsed source file.
type Module struct {
	Path    string
	Imports []*ImportStmt
	Schemas []*SchemaDef
	Stmts   []Stmt // everything in source order, including imports/schemas markers
}

// WalkStmts calls fn for every expression in a statement list, recursively,
// including def/validator bodies and nested blocks.
func WalkStmts(stmts []Stmt, fn func(Expr)) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *LetStmt:
			WalkExpr(s.Value, fn)
		case *AssignStmt:
			WalkExpr(s.Value, fn)
		case *DefStmt:
			WalkStmts(s.Body, fn)
		case *ValidatorStmt:
			WalkStmts(s.Body, fn)
		case *ExportStmt:
			WalkExpr(s.Value, fn)
		case *AssertStmt:
			WalkExpr(s.Cond, fn)
			WalkExpr(s.Message, fn)
		case *IfStmt:
			WalkExpr(s.Cond, fn)
			WalkStmts(s.Then, fn)
			WalkStmts(s.Else, fn)
		case *ForStmt:
			WalkExpr(s.Seq, fn)
			WalkStmts(s.Body, fn)
		case *ReturnStmt:
			WalkExpr(s.Value, fn)
		case *ExprStmt:
			WalkExpr(s.X, fn)
		}
	}
}

// WalkExpr calls fn for x and every subexpression of it (nothing for nil).
func WalkExpr(x Expr, fn func(Expr)) {
	if x == nil {
		return
	}
	fn(x)
	switch e := x.(type) {
	case *ListExpr:
		for _, el := range e.Elems {
			WalkExpr(el, fn)
		}
	case *MapExpr:
		for i := range e.Keys {
			WalkExpr(e.Keys[i], fn)
			WalkExpr(e.Values[i], fn)
		}
	case *StructExpr:
		for _, v := range e.Values {
			WalkExpr(v, fn)
		}
	case *UpdateExpr:
		WalkExpr(e.Base, fn)
		for _, v := range e.Values {
			WalkExpr(v, fn)
		}
	case *FieldExpr:
		WalkExpr(e.Base, fn)
	case *IndexExpr:
		WalkExpr(e.Base, fn)
		WalkExpr(e.Index, fn)
	case *CallExpr:
		WalkExpr(e.Fn, fn)
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	case *UnaryExpr:
		WalkExpr(e.X, fn)
	case *BinaryExpr:
		WalkExpr(e.X, fn)
		WalkExpr(e.Y, fn)
	case *CondExpr:
		WalkExpr(e.Cond, fn)
		WalkExpr(e.A, fn)
		WalkExpr(e.B, fn)
	}
}
