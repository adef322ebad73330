package cdl

import "testing"

// TestLexNumber pins every numeric literal shape to the value (or the
// error) the fmt.Sscanf-based lexer gave before strconv replaced it.
func TestLexNumber(t *testing.T) {
	for _, c := range []struct {
		src   string
		kind  tokenKind
		text  string
		i     int64
		f     float64
		isErr bool
	}{
		{src: "0", kind: tokInt, text: "0"},
		{src: "007", kind: tokInt, text: "007", i: 7},
		{src: "1_000", kind: tokInt, text: "1000", i: 1000},
		{src: "1_", kind: tokInt, text: "1", i: 1},
		{src: "9223372036854775807", kind: tokInt, text: "9223372036854775807", i: 9223372036854775807},
		{src: "9223372036854775808", isErr: true},
		{src: "99999999999999999999", isErr: true},
		{src: "1.5", kind: tokFloat, text: "1.5", f: 1.5},
		{src: "0.1", kind: tokFloat, text: "0.1", f: 0.1},
		{src: "1e9", kind: tokFloat, text: "1e9", f: 1e9},
		{src: "1E9", kind: tokFloat, text: "1E9", f: 1e9},
		{src: "1e+9", kind: tokFloat, text: "1e+9", f: 1e9},
		{src: "1.5e-3", kind: tokFloat, text: "1.5e-3", f: 0.0015},
		{src: "12.5e+3", kind: tokFloat, text: "12.5e+3", f: 12500},
		{src: "1_e3", kind: tokFloat, text: "1e3", f: 1000},
		{src: "1e5_0", kind: tokFloat, text: "1e50", f: 1e50},
		{src: "1e-400", kind: tokFloat, text: "1e-400", f: 0},
		{src: "1e400", isErr: true},
		{src: "1e", isErr: true},
		{src: "1e+", isErr: true},
		// The one change: Sscanf stopped at the second exponent and read
		// this as 100, dropping the rest of the literal.
		{src: "1e2e3", isErr: true},
		// The literal ends where the number grammar does.
		{src: "1.e3", kind: tokInt, text: "1", i: 1},
		{src: "0x10", kind: tokInt, text: "0"},
	} {
		tok, err := newLexer("t.cconf", c.src).next()
		if c.isErr {
			if err == nil {
				t.Errorf("%q: lexed as %+v, want an error", c.src, tok)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if tok.kind != c.kind || tok.text != c.text || tok.intVal != c.i || tok.floatVal != c.f {
			t.Errorf("%q: kind %v text %q int %d float %v; want kind %v text %q int %d float %v",
				c.src, tok.kind, tok.text, tok.intVal, tok.floatVal, c.kind, c.text, c.i, c.f)
		}
	}
}
