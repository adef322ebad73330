// Package cdl implements the Config Definition Language — this repository's
// stand-in for the Python + Thrift "configuration as code" sources the
// Configerator compiler consumes (§3.1).
//
// A CDL module can declare thrift-like schemas, reusable functions and
// constants, validators that express config invariants (§3.3), and imports
// of other modules. Import statements are the dependency edges the
// Dependency Service extracts (§3.1): when an imported file changes, every
// importer is recompiled in the same commit, which is what keeps e.g. an
// application config and a firewall config consistent. Compiling a module
// evaluates it, type-checks the exported value against its schema, fills in
// defaults, runs every registered validator, and emits canonical JSON.
package cdl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Pos is a source position for error reporting.
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders file:line:col.
func (p Pos) String() string { return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col) }

// Error is a positioned compilation or evaluation error.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokPunct   // ( ) { } [ ] , ; : . ? < >
	tokOp      // + - * / % == != <= >= && || ! = < >
	tokKeyword // import schema let def validator export assert if else for in return true false null and or not
)

// kindNames name the token kinds in parser errors.
var kindNames = [...]string{tokEOF: "end of input", tokIdent: "identifier", tokInt: "integer",
	tokFloat: "float", tokString: "string", tokPunct: "punctuation", tokOp: "operator", tokKeyword: "keyword"}

func (k tokenKind) String() string { return kindNames[k] }

var keywords = map[string]bool{
	"import": true, "schema": true, "let": true, "def": true,
	"validator": true, "export": true, "assert": true, "if": true,
	"else": true, "for": true, "in": true, "return": true,
	"true": true, "false": true, "null": true,
}

type token struct {
	kind tokenKind
	text string
	pos  Pos
	// end is the position one past the token's last character (same line
	// for every token kind: newlines never appear inside a token).
	end Pos
	// literal payloads
	intVal   int64
	floatVal float64
	strVal   string
}

func (t token) is(kind tokenKind, text string) bool {
	return t.kind == kind && t.text == text
}

type lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

func newLexer(file, src string) *lexer {
	return &lexer{src: src, file: file, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c rune) bool { return c == '_' || unicode.IsLetter(c) }
func isIdentPart(c rune) bool  { return c == '_' || unicode.IsLetter(c) || unicode.IsDigit(c) }

// next returns the next token or an error. The token carries both its
// start position and its end position (one past the last character), so
// downstream consumers — the parser and the diagnostics it feeds — can
// report precise source ranges.
func (l *lexer) next() (token, error) {
	t, err := l.lex()
	if err != nil {
		return t, err
	}
	t.end = l.pos()
	return t, nil
}

// lex scans one token; next() stamps the end position afterwards.
func (l *lexer) lex() (token, error) {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case c >= '0' && c <= '9':
		return l.lexNumber(pos)
	case c == '"':
		return l.lexString(pos)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	if isIdentStart(r) {
		start := l.off
		for l.off < len(l.src) {
			r, size := utf8.DecodeRuneInString(l.src[l.off:])
			if !isIdentPart(r) {
				break
			}
			for i := 0; i < size; i++ {
				l.advance()
			}
		}
		text := l.src[start:l.off]
		if keywords[text] {
			return token{kind: tokKeyword, text: text, pos: pos}, nil
		}
		return token{kind: tokIdent, text: text, pos: pos}, nil
	}
	// Operators and punctuation.
	two := ""
	if l.off+1 < len(l.src) {
		two = l.src[l.off : l.off+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", "&&", "||":
		l.advance()
		l.advance()
		return token{kind: tokOp, text: two, pos: pos}, nil
	}
	l.advance()
	s := string(c)
	switch c {
	case '+', '-', '*', '/', '%', '!', '=', '<', '>':
		return token{kind: tokOp, text: s, pos: pos}, nil
	case '(', ')', '{', '}', '[', ']', ',', ';', ':', '.', '?':
		return token{kind: tokPunct, text: s, pos: pos}, nil
	}
	return token{}, errf(pos, "unexpected character %q", s)
}

func (l *lexer) lexNumber(pos Pos) (token, error) {
	start := l.off
	isFloat := false
	for l.off < len(l.src) {
		c := l.peekByte()
		if c >= '0' && c <= '9' || c == '_' {
			l.advance()
		} else if c == '.' && !isFloat && l.peek2() >= '0' && l.peek2() <= '9' {
			isFloat = true
			l.advance()
		} else if (c == 'e' || c == 'E') && l.off > start {
			isFloat = true
			l.advance()
			if l.peekByte() == '+' || l.peekByte() == '-' {
				l.advance()
			}
		} else {
			break
		}
	}
	text := strings.ReplaceAll(l.src[start:l.off], "_", "")
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, errf(pos, "bad float literal %q", text)
		}
		return token{kind: tokFloat, text: text, floatVal: f, pos: pos}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, errf(pos, "bad int literal %q", text)
	}
	return token{kind: tokInt, text: text, intVal: i, pos: pos}, nil
}

func (l *lexer) lexString(pos Pos) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.off >= len(l.src) {
			return token{}, errf(pos, "unterminated string")
		}
		c := l.advance()
		switch c {
		case '"':
			return token{kind: tokString, text: b.String(), strVal: b.String(), pos: pos}, nil
		case '\\':
			if l.off >= len(l.src) {
				return token{}, errf(pos, "unterminated escape")
			}
			e := l.advance()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return token{}, errf(pos, "bad escape \\%c", e)
			}
		case '\n':
			return token{}, errf(pos, "newline in string")
		default:
			b.WriteByte(c)
		}
	}
}

// lexAll tokenizes the whole source.
func lexAll(file, src string) ([]token, error) {
	l := newLexer(file, src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
