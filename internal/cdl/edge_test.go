package cdl

import (
	"strings"
	"testing"
)

// Additional lexer/parser/eval edge coverage.

func TestNumberLiterals(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		export {
			a: 1_000_000,
			b: 1e3,
			c: 2.5e-2,
			d: 0,
			e: 0.5,
		};
	`}, "a.cconf")
	want := `{"a":1000000,"b":1000,"c":0.025,"d":0,"e":0.5}`
	if string(res.JSON) != want {
		t.Errorf("JSON = %s\nwant  %s", res.JSON, want)
	}
}

func TestStringIndexing(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		let s = "hello";
		export {first: s[0], last: s[4], n: len(s)};
	`}, "a.cconf")
	if string(res.JSON) != `{"first":"h","last":"o","n":5}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestNestedFunctionsAndHigherOrderError(t *testing.T) {
	// Functions are values; calling a non-function errors cleanly.
	err := compileErr(t, MapFS{"a.cconf": `
		let x = 5;
		export {v: x(1)};
	`}, "a.cconf")
	if !strings.Contains(err.Error(), "not callable") {
		t.Errorf("err = %v", err)
	}
}

func TestFunctionAsExportRejected(t *testing.T) {
	err := compileErr(t, MapFS{"a.cconf": `
		def f() { return 1; }
		export {fn: f};
	`}, "a.cconf")
	if !strings.Contains(err.Error(), "serialize") {
		t.Errorf("err = %v", err)
	}
}

func TestErrorPositionsReported(t *testing.T) {
	_, err := NewEngine().Compile(MapFS{"dir/a.cconf": "let x = ;\n"}, "dir/a.cconf")
	if err == nil || !strings.Contains(err.Error(), "dir/a.cconf:1:") {
		t.Errorf("err = %v, want position dir/a.cconf:1:", err)
	}
	_, err = NewEngine().Compile(MapFS{"b.cconf": "let x = 1;\nlet y = z;\nexport {};\n"}, "b.cconf")
	if err == nil || !strings.Contains(err.Error(), "b.cconf:2:") {
		t.Errorf("err = %v, want position b.cconf:2:", err)
	}
}

func TestDeepNesting(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		export {a: {b: {c: {d: [1, [2, [3, {e: "deep"}]]]}}}};
	`}, "a.cconf")
	if string(res.JSON) != `{"a":{"b":{"c":{"d":[1,[2,[3,{"e":"deep"}]]]}}}}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestTrailingCommas(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		export {a: [1, 2, 3,], b: {x: 1,}};
	`}, "a.cconf")
	if string(res.JSON) != `{"a":[1,2,3],"b":{"x":1}}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestShortCircuitPreventsErrors(t *testing.T) {
	// && and || short-circuit so the guarded division never runs.
	res := compileOne(t, MapFS{"a.cconf": `
		let d = 0;
		export {
			a: d != 0 && (10 / d) > 1,
			b: d == 0 || (10 / d) > 1,
		};
	`}, "a.cconf")
	if string(res.JSON) != `{"a":false,"b":true}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestForLoopScoping(t *testing.T) {
	// Loop variables are scoped to the body; rebinding an outer variable
	// inside the loop persists.
	res := compileOne(t, MapFS{"a.cconf": `
		let total = 0;
		for (x in range(5)) {
			total = total + x;
		}
		export {total: total};
	`}, "a.cconf")
	if string(res.JSON) != `{"total":10}` {
		t.Errorf("JSON = %s", res.JSON)
	}
	err := compileErr(t, MapFS{"b.cconf": `
		for (x in [1]) { let y = x; }
		export {leak: x};
	`}, "b.cconf")
	if !strings.Contains(err.Error(), "undefined name") {
		t.Errorf("loop variable leaked: %v", err)
	}
}

func TestUnicodeStringsSurvive(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `export {s: "héllo 世界"};`}, "a.cconf")
	if !strings.Contains(string(res.JSON), "héllo 世界") {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		let nombre = "valor";
		export {v: nombre};
	`}, "a.cconf")
	if string(res.JSON) != `{"v":"valor"}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestCompareStrings(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		export {a: "abc" < "abd", b: "b" >= "a", c: "x" == "x"};
	`}, "a.cconf")
	if string(res.JSON) != `{"a":true,"b":true,"c":true}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestMixedComparisonErrors(t *testing.T) {
	err := compileErr(t, MapFS{"a.cconf": `export {x: "a" < 3};`}, "a.cconf")
	if !strings.Contains(err.Error(), "cannot compare") {
		t.Errorf("err = %v", err)
	}
}

func TestValidatorSeesNormalizedDefaults(t *testing.T) {
	// Validators run on the normalized struct, so defaults are visible.
	res := compileOne(t, MapFS{"a.cconf": `
		schema C { 1: i32 x = 7; }
		validator C(c) { assert(c.x == 7 || c.x > 0, "x visible"); }
		export C{};
	`}, "a.cconf")
	if string(res.JSON) != `{"x":7}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestDefaultExprsEvaluated(t *testing.T) {
	// Field defaults are expressions evaluated in scope.
	res := compileOne(t, MapFS{"a.cconf": `
		let BASE = 100;
		schema C { 1: i64 limit = BASE * 2; }
		export C{};
	`}, "a.cconf")
	if string(res.JSON) != `{"limit":200}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}
