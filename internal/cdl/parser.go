package cdl

import "fmt"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
	file string
}

// Parse parses one CDL source file into a Module.
func Parse(file, src string) (*Module, error) {
	toks, err := lexAll(file, src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, file: file}
	m := &Module{Path: file}
	for !p.at(tokEOF, "") {
		st, err := p.parseTopLevel(m)
		if err != nil {
			return nil, err
		}
		if st != nil {
			m.Stmts = append(m.Stmts, st)
		}
	}
	return m, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// last returns the end position of the most recently consumed token — the
// end position of whatever construct just finished parsing.
func (p *parser) last() Pos { return p.toks[p.i-1].end }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	return text == "" || t.text == text
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want, found := kind.String(), tokEOF.String()
	if text != "" {
		want = fmt.Sprintf("%q", text)
	}
	if t.kind != tokEOF {
		found = fmt.Sprintf("%q", t.text)
	}
	return token{}, errf(t.pos, "expected %s, found %s", want, found)
}

func (p *parser) parseTopLevel(m *Module) (Stmt, error) {
	t := p.cur()
	if t.kind == tokKeyword {
		switch t.text {
		case "import":
			st, err := p.parseImport()
			if err != nil {
				return nil, err
			}
			m.Imports = append(m.Imports, st)
			return st, nil
		case "schema":
			sd, err := p.parseSchema()
			if err != nil {
				return nil, err
			}
			m.Schemas = append(m.Schemas, sd)
			return nil, nil
		}
	}
	return p.parseStmt()
}

func (p *parser) parseImport() (*ImportStmt, error) {
	kw, _ := p.expect(tokKeyword, "import")
	pathTok, err := p.expect(tokString, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &ImportStmt{Pos: kw.pos, End: p.last(), Path: pathTok.strVal,
		PathPos: pathTok.pos, PathEnd: pathTok.end}, nil
}

func (p *parser) parseSchema() (*SchemaDef, error) {
	kw, _ := p.expect(tokKeyword, "schema")
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	sd := &SchemaDef{Name: name.text, Pos: kw.pos}
	if p.at(tokIdent, "extends") {
		p.next()
		base, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		sd.Extends = base.text
	}
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	seenIDs := make(map[int]bool)
	seenNames := make(map[string]bool)
	for !p.accept(tokPunct, "}") {
		idTok, err := p.expect(tokInt, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ":"); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fname, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		fd := &FieldDef{ID: int(idTok.intVal), Type: typ, Name: fname.text, Pos: idTok.pos}
		if seenIDs[fd.ID] {
			return nil, errf(idTok.pos, "duplicate field id %d in schema %s", fd.ID, sd.Name)
		}
		if seenNames[fd.Name] {
			return nil, errf(fname.pos, "duplicate field name %q in schema %s", fd.Name, sd.Name)
		}
		seenIDs[fd.ID] = true
		seenNames[fd.Name] = true
		if p.accept(tokOp, "=") {
			def, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fd.Default = def
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		fd.End = p.last()
		sd.Fields = append(sd.Fields, fd)
	}
	sd.End = p.last()
	return sd, nil
}

func (p *parser) parseType() (*TypeExpr, error) {
	te, err := p.parseTypeInner()
	if err != nil {
		return nil, err
	}
	te.End = p.last()
	return te, nil
}

func (p *parser) parseTypeInner() (*TypeExpr, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, errf(t.pos, "expected type name, found %q", t.text)
	}
	p.next()
	te := &TypeExpr{Pos: t.pos}
	switch t.text {
	case "bool":
		te.Kind = KindBool
	case "i32":
		te.Kind = KindI32
	case "i64":
		te.Kind = KindI64
	case "double":
		te.Kind = KindDouble
	case "string":
		te.Kind = KindString
	case "list":
		te.Kind = KindList
		if _, err := p.expect(tokOp, "<"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		te.Elem = elem
		if _, err := p.expect(tokOp, ">"); err != nil {
			return nil, err
		}
	case "map":
		te.Kind = KindMap
		if _, err := p.expect(tokOp, "<"); err != nil {
			return nil, err
		}
		key, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if key.Kind != KindString {
			return nil, errf(key.Pos, "map keys must be string (JSON object keys)")
		}
		if _, err := p.expect(tokPunct, ","); err != nil {
			return nil, err
		}
		val, err := p.parseType()
		if err != nil {
			return nil, err
		}
		te.Elem = val
		if _, err := p.expect(tokOp, ">"); err != nil {
			return nil, err
		}
	default:
		te.Kind = KindStruct
		te.Name = t.text
	}
	return te, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept(tokPunct, "}") {
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	if t.kind == tokKeyword {
		switch t.text {
		case "let":
			p.next()
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "="); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ";"); err != nil {
				return nil, err
			}
			return &LetStmt{Pos: t.pos, End: p.last(), Name: name.text, Value: v,
				NamePos: name.pos, NameEnd: name.end}, nil
		case "def":
			p.next()
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			var params []string
			for !p.accept(tokPunct, ")") {
				if len(params) > 0 {
					if _, err := p.expect(tokPunct, ","); err != nil {
						return nil, err
					}
				}
				pn, err := p.expect(tokIdent, "")
				if err != nil {
					return nil, err
				}
				params = append(params, pn.text)
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			return &DefStmt{Pos: t.pos, End: p.last(), Name: name.text, Params: params, Body: body,
				NamePos: name.pos, NameEnd: name.end}, nil
		case "validator":
			p.next()
			schema, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			param, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			return &ValidatorStmt{Pos: t.pos, End: p.last(), Schema: schema.text, Param: param.text, Body: body}, nil
		case "export":
			p.next()
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ";"); err != nil {
				return nil, err
			}
			return &ExportStmt{Pos: t.pos, End: p.last(), Value: v}, nil
		case "assert":
			p.next()
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			var msg Expr
			if p.accept(tokPunct, ",") {
				msg, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ";"); err != nil {
				return nil, err
			}
			return &AssertStmt{Pos: t.pos, End: p.last(), Cond: cond, Message: msg}, nil
		case "if":
			return p.parseIf()
		case "for":
			// `for (x in seq) { ... }` — the parens avoid the classic
			// composite-literal ambiguity with `seq {`.
			p.next()
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			v, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "in"); err != nil {
				return nil, err
			}
			seq, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			return &ForStmt{Pos: t.pos, End: p.last(), Var: v.text, Seq: seq, Body: body}, nil
		case "return":
			p.next()
			if p.accept(tokPunct, ";") {
				return &ReturnStmt{Pos: t.pos, End: p.last()}, nil
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ";"); err != nil {
				return nil, err
			}
			return &ReturnStmt{Pos: t.pos, End: p.last(), Value: v}, nil
		case "import", "schema":
			return nil, errf(t.pos, "%s is only allowed at top level", t.text)
		}
	}
	// assignment or expression statement
	if t.kind == tokIdent && p.toks[p.i+1].is(tokOp, "=") {
		p.next()
		p.next()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: t.pos, End: p.last(), Name: t.text, Value: v}, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	return &ExprStmt{Pos: t.pos, End: p.last(), X: x}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	kw, _ := p.expect(tokKeyword, "if")
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Pos: kw.pos, End: p.last(), Cond: cond, Then: then}
	if p.accept(tokKeyword, "else") {
		if p.at(tokKeyword, "if") {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{elseIf}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		st.End = p.last()
	}
	return st, nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseCond() }

func (p *parser) parseCond() (Expr, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.accept(tokPunct, "?") {
		return cond, nil
	}
	a, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ":"); err != nil {
		return nil, err
	}
	b, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Pos: cond.exprPos(), End: b.exprEnd(), Cond: cond, A: a, B: b}, nil
}

func (p *parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "||") {
		op := p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Pos: op.pos, End: y.exprEnd(), Op: "||", X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseAnd() (Expr, error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "&&") {
		op := p.next()
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Pos: op.pos, End: y.exprEnd(), Op: "&&", X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseCmp() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp {
			return x, nil
		}
		switch t.text {
		case "==", "!=", "<", "<=", ">", ">=":
			p.next()
			y, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			x = &BinaryExpr{Pos: t.pos, End: y.exprEnd(), Op: t.text, X: x, Y: y}
		default:
			return x, nil
		}
	}
}

func (p *parser) parseAdd() (Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "+") || p.at(tokOp, "-") {
		op := p.next()
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Pos: op.pos, End: y.exprEnd(), Op: op.text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseMul() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokOp, "*") || p.at(tokOp, "/") || p.at(tokOp, "%") {
		op := p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Pos: op.pos, End: y.exprEnd(), Op: op.text, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.is(tokOp, "-") || t.is(tokOp, "!") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.pos, End: x.exprEnd(), Op: t.text, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case t.is(tokPunct, "."):
			p.next()
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			x = &FieldExpr{Pos: t.pos, End: name.end, Base: x, Name: name.text}
		case t.is(tokPunct, "["):
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{Pos: t.pos, End: p.last(), Base: x, Index: idx}
		case t.is(tokPunct, "("):
			p.next()
			var args []Expr
			for !p.accept(tokPunct, ")") {
				if len(args) > 0 {
					if _, err := p.expect(tokPunct, ","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			x = &CallExpr{Pos: t.pos, End: p.last(), Fn: x, Args: args}
		case t.is(tokPunct, "{"):
			// Struct update on a non-identifier base, or struct literal on
			// an identifier base. An identifier followed by '{' is a struct
			// literal when the identifier names a type (decided at eval);
			// we parse both as the same shape.
			names, values, err := p.parseFieldInits()
			if err != nil {
				return nil, err
			}
			if id, ok := x.(*IdentExpr); ok {
				x = &StructExpr{Pos: id.Pos, End: p.last(), Type: id.Name, Names: names, Values: values}
			} else {
				x = &UpdateExpr{Pos: t.pos, End: p.last(), Base: x, Names: names, Values: values}
			}
		default:
			return x, nil
		}
	}
}

// parseFieldInits parses "{name: expr, ...}".
func (p *parser) parseFieldInits() ([]string, []Expr, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, nil, err
	}
	var names []string
	var values []Expr
	for !p.accept(tokPunct, "}") {
		if len(names) > 0 {
			if _, err := p.expect(tokPunct, ","); err != nil {
				return nil, nil, err
			}
			if p.accept(tokPunct, "}") { // trailing comma
				return names, values, nil
			}
		}
		n, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokPunct, ":"); err != nil {
			return nil, nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		names = append(names, n.text)
		values = append(values, v)
	}
	return names, values, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.next()
		return &LitExpr{Pos: t.pos, End: t.end, Val: Int(t.intVal)}, nil
	case tokFloat:
		p.next()
		return &LitExpr{Pos: t.pos, End: t.end, Val: Float(t.floatVal)}, nil
	case tokString:
		p.next()
		return &LitExpr{Pos: t.pos, End: t.end, Val: Str(t.strVal)}, nil
	case tokKeyword:
		switch t.text {
		case "true":
			p.next()
			return &LitExpr{Pos: t.pos, End: t.end, Val: Bool(true)}, nil
		case "false":
			p.next()
			return &LitExpr{Pos: t.pos, End: t.end, Val: Bool(false)}, nil
		case "null":
			p.next()
			return &LitExpr{Pos: t.pos, End: t.end, Val: Null{}}, nil
		}
	case tokIdent:
		p.next()
		return &IdentExpr{Pos: t.pos, End: t.end, Name: t.text}, nil
	case tokPunct:
		switch t.text {
		case "(":
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			p.next()
			var elems []Expr
			for !p.accept(tokPunct, "]") {
				if len(elems) > 0 {
					if _, err := p.expect(tokPunct, ","); err != nil {
						return nil, err
					}
					if p.accept(tokPunct, "]") {
						return &ListExpr{Pos: t.pos, End: p.last(), Elems: elems}, nil
					}
				}
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
			}
			return &ListExpr{Pos: t.pos, End: p.last(), Elems: elems}, nil
		case "{":
			p.next()
			m := &MapExpr{Pos: t.pos}
			for !p.accept(tokPunct, "}") {
				if len(m.Keys) > 0 {
					if _, err := p.expect(tokPunct, ","); err != nil {
						return nil, err
					}
					if p.accept(tokPunct, "}") {
						m.End = p.last()
						return m, nil
					}
				}
				var k Expr
				kt := p.cur()
				if kt.kind == tokString {
					p.next()
					k = &LitExpr{Pos: kt.pos, End: kt.end, Val: Str(kt.strVal)}
				} else if kt.kind == tokIdent {
					p.next()
					k = &LitExpr{Pos: kt.pos, End: kt.end, Val: Str(kt.text)}
				} else {
					return nil, errf(kt.pos, "map key must be a string or identifier")
				}
				if _, err := p.expect(tokPunct, ":"); err != nil {
					return nil, err
				}
				v, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				m.Keys = append(m.Keys, k)
				m.Values = append(m.Values, v)
			}
			m.End = p.last()
			return m, nil
		}
	}
	return nil, errf(t.pos, "unexpected token %q", t.text)
}
