package cdl

import (
	"strings"
	"testing"
)

func compileOne(t *testing.T, fs MapFS, path string) *Result {
	t.Helper()
	res, err := NewEngine().Compile(fs, path)
	if err != nil {
		t.Fatalf("Compile(%s): %v", path, err)
	}
	return res
}

func compileErr(t *testing.T, fs MapFS, path string) error {
	t.Helper()
	_, err := NewEngine().Compile(fs, path)
	if err == nil {
		t.Fatalf("Compile(%s): expected error", path)
	}
	return err
}

// The paper's Figure 2 example, transliterated to CDL: a schema, a reusable
// create_job module, and a cache job config built from it.
var figure2 = MapFS{
	"scheduler/job.schema": `
		schema Job {
			1: string name;
			2: i32 priority = 1;
			3: list<string> tags = [];
			4: map<string, i64> limits = {};
			5: bool enabled = true;
		}
		validator Job(cfg) {
			assert(cfg.priority >= 0 && cfg.priority <= 10, "priority out of range");
			assert(len(cfg.name) > 0, "name required");
		}
	`,
	"scheduler/create_job.cinc": `
		import "scheduler/job.schema";
		def create_job(name, prio) {
			return Job{name: name, priority: prio, tags: ["managed"]};
		}
	`,
	"cache/cache_job.cconf": `
		import "scheduler/create_job.cinc";
		export create_job("cache", 3);
	`,
	"security/security_job.cconf": `
		import "scheduler/create_job.cinc";
		export create_job("security", 2);
	`,
}

func TestFigure2Pipeline(t *testing.T) {
	res := compileOne(t, figure2, "cache/cache_job.cconf")
	want := `{"enabled":true,"limits":{},"name":"cache","priority":3,"tags":["managed"]}`
	if string(res.JSON) != want {
		t.Errorf("JSON = %s\nwant  %s", res.JSON, want)
	}
	if res.SchemaName != "Job" {
		t.Errorf("SchemaName = %q", res.SchemaName)
	}
	if len(res.Imports) != 1 || res.Imports[0] != "scheduler/create_job.cinc" {
		t.Errorf("Imports = %v", res.Imports)
	}
	// Transitive deps include the schema module.
	if len(res.Deps) != 2 {
		t.Errorf("Deps = %v", res.Deps)
	}
}

func TestValidatorRejects(t *testing.T) {
	fs := MapFS{}
	for k, v := range figure2 {
		fs[k] = v
	}
	fs["bad/bad_job.cconf"] = `
		import "scheduler/create_job.cinc";
		export create_job("bad", 99);
	`
	err := compileErr(t, fs, "bad/bad_job.cconf")
	if !strings.Contains(err.Error(), "priority out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	fs := MapFS{
		"a.cconf": `
			schema C { 1: i32 x = 0; }
			export C{y: 3};
		`,
	}
	err := compileErr(t, fs, "a.cconf")
	if !strings.Contains(err.Error(), "no field") {
		t.Errorf("err = %v", err)
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	fs := MapFS{
		"a.cconf": `
			schema C { 1: i32 x = 0; }
			export C{x: "nope"};
		`,
	}
	err := compileErr(t, fs, "a.cconf")
	if !strings.Contains(err.Error(), "want i32") {
		t.Errorf("err = %v", err)
	}
}

func TestI32Range(t *testing.T) {
	fs := MapFS{
		"a.cconf": `
			schema C { 1: i32 x = 0; }
			export C{x: 3000000000};
		`,
	}
	err := compileErr(t, fs, "a.cconf")
	if !strings.Contains(err.Error(), "i32 range") {
		t.Errorf("err = %v", err)
	}
}

func TestDefaultsFilled(t *testing.T) {
	fs := MapFS{
		"a.cconf": `
			schema C {
				1: i32 x = 42;
				2: string s;
				3: double d = 2.5;
				4: list<i64> l;
			}
			export C{};
		`,
	}
	res := compileOne(t, fs, "a.cconf")
	want := `{"d":2.5,"l":[],"s":"","x":42}`
	if string(res.JSON) != want {
		t.Errorf("JSON = %s, want %s", res.JSON, want)
	}
}

func TestNestedStructValidation(t *testing.T) {
	fs := MapFS{
		"a.cconf": `
			schema Inner { 1: i32 n = 0; }
			schema Outer { 1: Inner inner; 2: list<Inner> more = []; }
			validator Inner(c) { assert(c.n < 100, "n too big"); }
			export Outer{inner: Inner{n: 5}, more: [Inner{n: 200}]};
		`,
	}
	err := compileErr(t, fs, "a.cconf")
	if !strings.Contains(err.Error(), "n too big") {
		t.Errorf("nested validator did not run: %v", err)
	}
}

func TestSharedConstantPropagates(t *testing.T) {
	// The paper's app_port.cinc example: both app and firewall configs
	// import the same constant.
	fs := MapFS{
		"lib/app_port.cinc": `let APP_PORT = 8089;`,
		"app.cconf": `
			import "lib/app_port.cinc";
			schema AppConfig { 1: i64 port; }
			export AppConfig{port: APP_PORT};
		`,
		"firewall.cconf": `
			import "lib/app_port.cinc";
			schema FirewallConfig { 1: i64 allow_port; }
			export FirewallConfig{allow_port: APP_PORT};
		`,
	}
	app := compileOne(t, fs, "app.cconf")
	fw := compileOne(t, fs, "firewall.cconf")
	if string(app.JSON) != `{"port":8089}` || string(fw.JSON) != `{"allow_port":8089}` {
		t.Errorf("app=%s fw=%s", app.JSON, fw.JSON)
	}
}

func TestImportCycle(t *testing.T) {
	fs := MapFS{
		"a.cinc":  `import "b.cinc"; let A = 1;`,
		"b.cinc":  `import "a.cinc"; let B = 2;`,
		"c.cconf": `import "a.cinc"; export {v: A};`,
	}
	err := compileErr(t, fs, "c.cconf")
	if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v", err)
	}
}

func TestDiamondImportLoadsOnce(t *testing.T) {
	fs := MapFS{
		"base.cinc": `let N = 7;`,
		"l.cinc":    `import "base.cinc"; let L = N + 1;`,
		"r.cinc":    `import "base.cinc"; let R = N + 2;`,
		"top.cconf": `
			import "l.cinc";
			import "r.cinc";
			export {l: L, r: R};
		`,
	}
	res := compileOne(t, fs, "top.cconf")
	if string(res.JSON) != `{"l":8,"r":9}` {
		t.Errorf("JSON = %s", res.JSON)
	}
	if len(res.Deps) != 3 {
		t.Errorf("Deps = %v, want 3 unique", res.Deps)
	}
}

func TestMissingExport(t *testing.T) {
	fs := MapFS{"a.cconf": `let x = 1;`}
	err := compileErr(t, fs, "a.cconf")
	if !strings.Contains(err.Error(), "export") {
		t.Errorf("err = %v", err)
	}
}

func TestLastExportWins(t *testing.T) {
	fs := MapFS{"a.cconf": `
		export {v: 1};
		export {v: 2};
	`}
	res := compileOne(t, fs, "a.cconf")
	if string(res.JSON) != `{"v":2}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestSchemalessMapExport(t *testing.T) {
	fs := MapFS{"a.cconf": `export {threshold: 0.5, names: ["a", "b"]};`}
	res := compileOne(t, fs, "a.cconf")
	if string(res.JSON) != `{"names":["a","b"],"threshold":0.5}` {
		t.Errorf("JSON = %s", res.JSON)
	}
	if res.SchemaName != "" {
		t.Errorf("SchemaName = %q, want empty", res.SchemaName)
	}
}

func TestControlFlow(t *testing.T) {
	fs := MapFS{"a.cconf": `
		def classify(n) {
			if (n > 10) { return "big"; }
			else if (n > 5) { return "medium"; }
			else { return "small"; }
		}
		let sizes = [];
		for (n in [1, 7, 20]) {
			sizes = sizes + [classify(n)];
		}
		export {sizes: sizes};
	`}
	res := compileOne(t, fs, "a.cconf")
	if string(res.JSON) != `{"sizes":["small","medium","big"]}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestStructUpdateExpr(t *testing.T) {
	fs := MapFS{"a.cconf": `
		schema C { 1: i32 x = 0; 2: i32 y = 0; }
		let base = C{x: 1, y: 2};
		let mod = base{y: 99};
		export {bx: base.x, by: base.y, mx: mod.x, my: mod.y};
	`}
	res := compileOne(t, fs, "a.cconf")
	if string(res.JSON) != `{"bx":1,"by":2,"mx":1,"my":99}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestBuiltins(t *testing.T) {
	fs := MapFS{"a.cconf": `
		export {
			l: len("abc"),
			k: keys({b: 1, a: 2}),
			mn: min(3, 1, 2),
			mx: max(3, 1, 2),
			r: range(2, 5),
			j: join(["x", "y"], "-"),
			f: format("{}:{}", "host", 80),
			s: sorted([3, 1, 2]),
			c: contains([1, 2], 2),
			h: has({a: 1}, "a"),
		};
	`}
	res := compileOne(t, fs, "a.cconf")
	want := `{"c":true,"f":"host:80","h":true,"j":"x-y","k":["a","b"],"l":3,"mn":1,"mx":3,"r":[2,3,4],"s":[1,2,3]}`
	if string(res.JSON) != want {
		t.Errorf("JSON = %s\nwant  %s", res.JSON, want)
	}
}

func TestArithmetic(t *testing.T) {
	fs := MapFS{"a.cconf": `
		export {
			a: 7 / 2,
			b: 7.0 / 2.0,
			c: 7 % 3,
			d: 2 * 3 + 1,
			e: -(4 - 6),
			f: 1 < 2 && 2 <= 2,
			g: !false,
			h: 1 > 2 ? "x" : "y",
		};
	`}
	res := compileOne(t, fs, "a.cconf")
	want := `{"a":3,"b":3.5,"c":1,"d":7,"e":2,"f":true,"g":true,"h":"y"}`
	if string(res.JSON) != want {
		t.Errorf("JSON = %s\nwant  %s", res.JSON, want)
	}
}

func TestDivisionByZero(t *testing.T) {
	err := compileErr(t, MapFS{"a.cconf": `export {x: 1 / 0};`}, "a.cconf")
	if !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestInfiniteLoopBounded(t *testing.T) {
	fs := MapFS{"a.cconf": `
		def f(n) { return f(n); }
		export {x: f(1)};
	`}
	err := compileErr(t, fs, "a.cconf")
	if !strings.Contains(err.Error(), "recursion") && !strings.Contains(err.Error(), "steps") {
		t.Errorf("err = %v", err)
	}
}

func TestTightLoopBounded(t *testing.T) {
	// A non-recursive unbounded loop is caught by the step budget.
	fs := MapFS{"a.cconf": `
		let l = range(1000000);
		let acc = 0;
		for (i in l) {
			for (j in l) {
				acc = acc + 1;
			}
		}
		export {x: acc};
	`}
	err := compileErr(t, fs, "a.cconf")
	if !strings.Contains(err.Error(), "steps") && !strings.Contains(err.Error(), "range too large") {
		t.Errorf("err = %v", err)
	}
}

func TestUndefinedName(t *testing.T) {
	err := compileErr(t, MapFS{"a.cconf": `export {x: nope};`}, "a.cconf")
	if !strings.Contains(err.Error(), "undefined name") {
		t.Errorf("err = %v", err)
	}
}

func TestAssignUndefined(t *testing.T) {
	err := compileErr(t, MapFS{"a.cconf": `x = 1; export {};`}, "a.cconf")
	if !strings.Contains(err.Error(), "undefined variable") {
		t.Errorf("err = %v", err)
	}
}

func TestListIndexOutOfRange(t *testing.T) {
	err := compileErr(t, MapFS{"a.cconf": `let l = [1]; export {x: l[5]};`}, "a.cconf")
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestMapMissingKeyIsNull(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		let m = {a: 1};
		export {missing: m["b"], present: m["a"]};
	`}, "a.cconf")
	if string(res.JSON) != `{"missing":null,"present":1}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestCanonicalJSONDeterministic(t *testing.T) {
	fs := MapFS{"a.cconf": `export {z: 1, a: 2, m: {q: 1, b: 2}};`}
	r1 := compileOne(t, fs, "a.cconf")
	r2 := compileOne(t, fs, "a.cconf")
	if string(r1.JSON) != string(r2.JSON) {
		t.Error("recompilation must be byte-identical")
	}
	if string(r1.JSON) != `{"a":2,"m":{"b":2,"q":1},"z":1}` {
		t.Errorf("JSON = %s", r1.JSON)
	}
}

func TestListImports(t *testing.T) {
	src := []byte(`
		import "feed/a.cinc";
		import "tao/b.cinc";
		export {};
	`)
	deps, err := ScanImports("x.cconf", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || deps[0] != "feed/a.cinc" || deps[1] != "tao/b.cinc" {
		t.Errorf("deps = %v", deps)
	}
}

func TestEvalExpr(t *testing.T) {
	v, err := EvalExpr(`{rate: 0.05, hosts: ["a", "b"], n: 2 + 3}`)
	if err != nil {
		t.Fatal(err)
	}
	js, _ := MarshalJSON(v)
	if js != `{"hosts":["a","b"],"n":5,"rate":0.05}` {
		t.Errorf("JSON = %s", js)
	}
}

func TestEvalExprTrailingGarbage(t *testing.T) {
	if _, err := EvalExpr(`1 + 2 ; drop`); err == nil {
		t.Fatal("expected error on trailing input")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`let = 3;`,
		`schema {}`,
		`export ;`,
		`let x = "unterminated;`,
		`let x = 1 +;`,
		`if x { }`,
		`schema S { 1: i32 a; 1: i32 b; }`,
		`schema S { 1: i32 a; 2: i32 a; }`,
		`schema S { 1: map<i32, i32> m; }`,
	}
	for _, src := range cases {
		if _, err := Parse("t.cconf", src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseErrorsNameTokenKinds: an error expecting a kind of token names
// the kind, and a source that ends early says so.
func TestParseErrorsNameTokenKinds(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`import x;`, `t.cconf:1:8: expected string, found "x"`},
		{`schema S { a: int; }`, `t.cconf:1:12: expected integer, found "a"`},
		{`export {a: 1.`, `t.cconf:1:14: expected identifier, found end of input`},
		{`let x = 1`, `t.cconf:1:10: expected ";", found end of input`},
	} {
		if _, err := Parse("t.cconf", tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) error = %v, want %s", tc.src, err, tc.want)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		# hash comment
		// slash comment
		let x = 1; # trailing
		export {x: x};
	`}, "a.cconf")
	if string(res.JSON) != `{"x":1}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestStringEscapes(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `export {s: "a\nb\t\"q\""};`}, "a.cconf")
	if string(res.JSON) != `{"s":"a\nb\t\"q\""}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestClosureCapture(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		let base = 10;
		def add(n) { return base + n; }
		export {v: add(5)};
	`}, "a.cconf")
	if string(res.JSON) != `{"v":15}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestRecursionWorks(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `
		def fact(n) {
			if (n <= 1) { return 1; }
			return n * fact(n - 1);
		}
		export {v: fact(6)};
	`}, "a.cconf")
	if string(res.JSON) != `{"v":720}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestSchemaRedefinitionRejected(t *testing.T) {
	fs := MapFS{
		"a.cinc":  `schema S { 1: i32 x = 0; }`,
		"b.cinc":  `schema S { 1: i64 y = 0; }`,
		"c.cconf": `import "a.cinc"; import "b.cinc"; export {};`,
	}
	err := compileErr(t, fs, "c.cconf")
	if !strings.Contains(err.Error(), "already defined") {
		t.Errorf("err = %v", err)
	}
}

func TestFloatFormatting(t *testing.T) {
	res := compileOne(t, MapFS{"a.cconf": `export {a: 1.0, b: 0.1, c: 1e6, d: 2.5e-3};`}, "a.cconf")
	if string(res.JSON) != `{"a":1,"b":0.1,"c":1e+06,"d":0.0025}` {
		t.Errorf("JSON = %s", res.JSON)
	}
}

func TestValueEqual(t *testing.T) {
	if !Equal(Int(3), Float(3)) {
		t.Error("numeric cross-type equality")
	}
	if Equal(Str("a"), Str("b")) {
		t.Error("distinct strings equal")
	}
	if !Equal(List{Int(1), Str("x")}, List{Int(1), Str("x")}) {
		t.Error("deep list equality")
	}
	if !Equal(Map{"a": Int(1)}, Map{"a": Int(1)}) {
		t.Error("deep map equality")
	}
	if Equal(Map{"a": Int(1)}, Map{"a": Int(2)}) {
		t.Error("unequal maps compared equal")
	}
}

func TestTruthy(t *testing.T) {
	for _, v := range []Value{Null{}, Bool(false), Int(0), Float(0), Str(""), List{}, Map{}} {
		if Truthy(v) {
			t.Errorf("%v should be falsy", v)
		}
	}
	for _, v := range []Value{Bool(true), Int(1), Str("x"), List{Int(1)}} {
		if !Truthy(v) {
			t.Errorf("%v should be truthy", v)
		}
	}
}
