package analysis

import (
	"sort"

	"configerator/internal/cdl"
)

// scope is a chain of visible-name sets mirroring the evaluator's lexical
// environments during the static walk.
type scope struct {
	parent *scope
	names  map[string]bool
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, names: map[string]bool{}}
}

func (s *scope) has(name string) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.names[name] {
			return true
		}
	}
	return false
}

// all returns every visible name, sorted (for nearest-name suggestions).
func (s *scope) all() []string {
	set := map[string]bool{}
	for cur := s; cur != nil; cur = cur.parent {
		for n := range cur.names {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// scopeVisitor receives scope-aware walk events.
type scopeVisitor struct {
	// expr is called for every expression with the names visible there.
	expr func(x cdl.Expr, sc *scope)
	// assign is called for every assignment statement.
	assign func(s *cdl.AssignStmt, sc *scope)
}

// scopeWalk walks the module with the evaluator's scoping rules,
// flow-insensitively within each block: every `let` in a block is visible
// throughout that block (so a use-before-let is not flagged — the walk is
// conservative to keep Error-severity analyzers free of false positives).
func scopeWalk(mod *cdl.Module, base *scope, v scopeVisitor) {
	// Schema field defaults evaluate against the module environment.
	for _, sd := range mod.Schemas {
		for _, f := range sd.Fields {
			if f.Default != nil {
				visitExpr(f.Default, base, v)
			}
		}
	}
	walkScopedBlock(mod.Stmts, base, v)
}

// walkScopedBlock walks one statement block. A new scope is created with
// every name the block itself binds (let/def at this level), then nested
// constructs chain child scopes off it.
func walkScopedBlock(stmts []cdl.Stmt, parent *scope, v scopeVisitor) {
	sc := newScope(parent)
	for _, st := range stmts {
		switch s := st.(type) {
		case *cdl.LetStmt:
			sc.names[s.Name] = true
		case *cdl.DefStmt:
			sc.names[s.Name] = true
		}
	}
	for _, st := range stmts {
		switch s := st.(type) {
		case *cdl.LetStmt:
			visitExpr(s.Value, sc, v)
		case *cdl.AssignStmt:
			if v.assign != nil {
				v.assign(s, sc)
			}
			visitExpr(s.Value, sc, v)
		case *cdl.DefStmt:
			body := newScope(sc)
			for _, p := range s.Params {
				body.names[p] = true
			}
			walkScopedBlock(s.Body, body, v)
		case *cdl.ValidatorStmt:
			body := newScope(sc)
			body.names[s.Param] = true
			walkScopedBlock(s.Body, body, v)
		case *cdl.ExportStmt:
			visitExpr(s.Value, sc, v)
		case *cdl.AssertStmt:
			visitExpr(s.Cond, sc, v)
			visitExpr(s.Message, sc, v)
		case *cdl.IfStmt:
			visitExpr(s.Cond, sc, v)
			walkScopedBlock(s.Then, sc, v)
			walkScopedBlock(s.Else, sc, v)
		case *cdl.ForStmt:
			visitExpr(s.Seq, sc, v)
			body := newScope(sc)
			body.names[s.Var] = true
			walkScopedBlock(s.Body, body, v)
		case *cdl.ReturnStmt:
			visitExpr(s.Value, sc, v)
		case *cdl.ExprStmt:
			visitExpr(s.X, sc, v)
		}
	}
}

func visitExpr(x cdl.Expr, sc *scope, v scopeVisitor) {
	if x == nil {
		return
	}
	cdl.WalkExpr(x, func(e cdl.Expr) {
		if v.expr != nil {
			v.expr(e, sc)
		}
	})
}

// editDistance is the Levenshtein distance, used for nearest-name
// suggestions on undefined references.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := 0; j <= len(b); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// nearest returns the candidate closest to name within edit distance 2, or
// "" when nothing is close.
func nearest(name string, candidates []string) string {
	best, bestDist := "", 3
	for _, c := range candidates {
		if c == name {
			continue
		}
		if d := editDistance(name, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

func minInt(nums ...int) int {
	m := nums[0]
	for _, n := range nums[1:] {
		if n < m {
			m = n
		}
	}
	return m
}
