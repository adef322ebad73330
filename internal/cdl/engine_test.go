package cdl

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// engineFanoutFS is a miniature of the shared-.cinc fan-out: n configs all
// importing one library.
func engineFanoutFS(n int) (MapFS, []string) {
	fs := MapFS{
		"lib/shared.cinc": `
			schema Job {
				1: string name;
				2: i32 priority = 1;
				3: list<string> tags = [];
			}
			validator Job(c) { assert(c.priority >= 0 && c.priority <= 10, "range"); }
			def mk(name, prio) {
				return Job{name: name, priority: prio, tags: ["managed", name]};
			}
		`,
	}
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("svc/app%02d.cconf", i)
		fs[p] = fmt.Sprintf("import \"lib/shared.cinc\";\nexport mk(\"svc-%02d\", %d);\n", i, i%10)
		paths = append(paths, p)
	}
	return fs, paths
}

// seedCompileAll runs the pre-engine serial path for reference output.
func seedCompileAll(t *testing.T, fs MapFS, paths []string) map[string][]byte {
	t.Helper()
	eng := &Engine{CacheDisabled: true}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		res, err := eng.Compile(fs, p)
		if err != nil {
			t.Fatalf("seed compile %s: %v", p, err)
		}
		out[p] = res.JSON
	}
	return out
}

// TestCompileAllMatchesSeed: engine output (cold, warm, serial, parallel)
// is byte-identical to the seed compiler's.
func TestCompileAllMatchesSeed(t *testing.T) {
	fs, paths := engineFanoutFS(20)
	want := seedCompileAll(t, fs, paths)

	for _, workers := range []int{1, 8} {
		eng := NewEngine()
		eng.Workers = workers
		for round := 0; round < 3; round++ { // round 0 cold, 1-2 warm
			results, err := eng.CompileAll(fs, paths)
			if err != nil {
				t.Fatalf("workers=%d round=%d: %v", workers, round, err)
			}
			if len(results) != len(paths) {
				t.Fatalf("workers=%d round=%d: %d results, want %d", workers, round, len(results), len(paths))
			}
			for i, res := range results {
				if res.Path != paths[i] {
					t.Fatalf("workers=%d round=%d: result %d is %s, want %s (sorted order)", workers, round, i, res.Path, paths[i])
				}
				if !bytes.Equal(res.JSON, want[res.Path]) {
					t.Errorf("workers=%d round=%d: %s differs from seed output", workers, round, res.Path)
				}
			}
		}
	}
}

// TestCompileAllCounters: the fan-out parses every source exactly once
// cold, and a warm identical batch is pure result-cache hits — with one
// worker and with eight racing on the shared .cinc.
func TestCompileAllCounters(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fs, paths := engineFanoutFS(10)
			eng := NewEngine()
			eng.Workers = workers
			if _, err := eng.CompileAll(fs, paths); err != nil {
				t.Fatal(err)
			}
			cold := eng.Counters().Snapshot()
			if cold["parse.miss"] != 11 {
				t.Errorf("cold parse.miss = %d, want 11 (10 configs + 1 shared .cinc)", cold["parse.miss"])
			}
			if _, err := eng.CompileAll(fs, paths); err != nil {
				t.Fatal(err)
			}
			warm := eng.Counters().Snapshot()
			if d := warm["parse.miss"] - cold["parse.miss"]; d != 0 {
				t.Errorf("warm batch parsed %d times, want 0", d)
			}
			if d := warm["result.hit"] - cold["result.hit"]; d != 10 {
				t.Errorf("warm result.hit delta = %d, want 10", d)
			}

			// Touched: the shared .cinc changes and every dependent
			// recompiles, but the dependents' own sources are unchanged, so
			// only the .cinc re-parses.
			fs["lib/shared.cinc"] += "\nlet touched = 1;\n"
			eng.InvalidatePaths("lib/shared.cinc")
			if _, err := eng.CompileAll(fs, paths); err != nil {
				t.Fatal(err)
			}
			touched := eng.Counters().Snapshot()
			if d := touched["parse.miss"] - warm["parse.miss"]; d != 1 {
				t.Errorf("touched .cinc re-parsed %d sources, want 1 (itself)", d)
			}
			if d := touched["result.miss"] - warm["result.miss"]; d != 10 {
				t.Errorf("touched result.miss delta = %d, want 10 (every dependent recompiles)", d)
			}
		})
	}
}

// TestDiamondParsesOnce: a diamond import graph (root → b, c → d) parses
// each file exactly once per content version, serially and in parallel.
func TestDiamondParsesOnce(t *testing.T) {
	fs := MapFS{
		"d.cinc":      `let base = 7;`,
		"b.cinc":      `import "d.cinc"; def fromB() { return base + 1; }`,
		"c.cinc":      `import "d.cinc"; def fromC() { return base + 2; }`,
		"root.cconf":  `import "b.cinc"; import "c.cinc"; export {b: fromB(), c: fromC()};`,
		"other.cconf": `import "b.cinc"; import "c.cinc"; export fromB() * fromC();`,
	}
	want := seedCompileAll(t, fs, []string{"root.cconf", "other.cconf"})
	for _, workers := range []int{1, 8} {
		eng := NewEngine()
		eng.Workers = workers
		results, err := eng.CompileAll(fs, []string{"root.cconf", "other.cconf"})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if !bytes.Equal(res.JSON, want[res.Path]) {
				t.Errorf("workers=%d: %s differs from seed output", workers, res.Path)
			}
		}
		if got := eng.Counters().Get("parse.miss"); got != 5 {
			t.Errorf("workers=%d: parse.miss = %d, want 5 (each file once, diamond shared)", workers, got)
		}
	}
}

// TestImpureModuleNotCached: a .cinc whose function mutates module state
// starts from its initial state in every compile, so repeated compiles see
// identical first-call behavior — caching must not change observable
// semantics.
func TestImpureModuleNotCached(t *testing.T) {
	fs := MapFS{
		"counter.cinc": `
			let n = 0;
			def bump() {
				n = n + 1;
				return n;
			}
		`,
		"use.cconf": `import "counter.cinc"; export {first: bump(), second: bump()};`,
	}
	want := seedCompileAll(t, fs, []string{"use.cconf"})
	eng := NewEngine()
	for i := 0; i < 3; i++ {
		res, err := eng.Compile(fs, "use.cconf")
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
		if !bytes.Equal(res.JSON, want["use.cconf"]) {
			t.Errorf("compile %d: %s, want %s", i, res.JSON, want["use.cconf"])
		}
	}
}

// TestSchemaContextFallback: `Name{...}` resolves against the compile-wide
// schema namespace, so a library struct-literal can be legal in one root
// config and an error in another. The cache must preserve both behaviors.
func TestSchemaContextFallback(t *testing.T) {
	fs := MapFS{
		"schema.cinc": `schema Job { 1: string name; }`,
		"lib.cinc":    `def mkjob(n) { return Job{name: n}; }`,
		"ok.cconf":    `import "schema.cinc"; import "lib.cinc"; export mkjob("a");`,
		"bad.cconf":   `import "lib.cinc"; export mkjob("b");`,
	}
	seedEng := &Engine{CacheDisabled: true}
	okWant, err := seedEng.Compile(fs, "ok.cconf")
	if err != nil {
		t.Fatal(err)
	}
	_, badErr := seedEng.Compile(fs, "bad.cconf")
	if badErr == nil || !strings.Contains(badErr.Error(), "unknown schema") {
		t.Fatalf("seed bad.cconf error = %v, want unknown schema", badErr)
	}

	// Both orders: caching lib.cinc via one root must not change the other.
	for _, order := range [][]string{{"ok.cconf", "bad.cconf"}, {"bad.cconf", "ok.cconf"}} {
		eng := NewEngine()
		for round := 0; round < 2; round++ {
			for _, p := range order {
				res, err := eng.Compile(fs, p)
				if p == "ok.cconf" {
					if err != nil {
						t.Fatalf("order %v round %d: ok.cconf: %v", order, round, err)
					}
					if !bytes.Equal(res.JSON, okWant.JSON) {
						t.Errorf("order %v round %d: ok.cconf differs from seed", order, round)
					}
				} else {
					if err == nil || err.Error() != badErr.Error() {
						t.Errorf("order %v round %d: bad.cconf error = %v, want %v", order, round, err, badErr)
					}
				}
			}
		}
	}
}

// TestErrorParityColdWarm: compile errors are never served from cache, and
// messages match the seed compiler byte-for-byte, cold and warm.
func TestErrorParityColdWarm(t *testing.T) {
	fs := MapFS{
		"lib/shared.cinc": `
			schema Job { 1: string name; 2: i32 priority = 1; }
			validator Job(c) { assert(c.priority <= 10, "priority too high"); }
			def mk(name, prio) { return Job{name: name, priority: prio}; }
		`,
		"good.cconf":    `import "lib/shared.cinc"; export mk("g", 1);`,
		"invalid.cconf": `import "lib/shared.cinc"; export mk("v", 99);`,
		"noexport.cinc": `let x = 1;`,
		"parse.cconf":   `import ;`,
		"missing.cconf": `import "does/not/exist.cinc"; export 1;`,
	}
	failing := []string{"invalid.cconf", "parse.cconf", "missing.cconf"}
	seedEng := &Engine{CacheDisabled: true}
	wantErr := make(map[string]string)
	for _, p := range failing {
		_, err := seedEng.Compile(fs, p)
		if err == nil {
			t.Fatalf("seed %s: expected error", p)
		}
		wantErr[p] = err.Error()
	}

	eng := NewEngine()
	for round := 0; round < 3; round++ {
		for _, p := range failing {
			_, err := eng.Compile(fs, p)
			if err == nil || err.Error() != wantErr[p] {
				t.Errorf("round %d: %s error = %v, want %q", round, p, err, wantErr[p])
			}
		}
		if _, err := eng.Compile(fs, "good.cconf"); err != nil {
			t.Errorf("round %d: good.cconf: %v", round, err)
		}
	}
}

// TestCompileAllBatchError: the batch error is the lexicographically first
// failing path's error, with successful results still returned sorted.
func TestCompileAllBatchError(t *testing.T) {
	fs := MapFS{
		"lib.cinc":   `def mk(p) { return {prio: p}; }`,
		"a-ok.cconf": `import "lib.cinc"; export mk(1);`,
		"b-bad.cconf": `import "lib.cinc";
			export missing_fn(2);`,
		"c-bad.cconf": `import ;`,
		"d-ok.cconf":  `import "lib.cinc"; export mk(4);`,
	}
	paths := []string{"d-ok.cconf", "c-bad.cconf", "b-bad.cconf", "a-ok.cconf"}
	seedEng := &Engine{CacheDisabled: true}
	_, seedErr := seedEng.Compile(fs, "b-bad.cconf")
	if seedErr == nil {
		t.Fatal("seed b-bad.cconf: expected error")
	}

	for _, workers := range []int{1, 8} {
		eng := NewEngine()
		eng.Workers = workers
		results, err := eng.CompileAll(fs, paths)
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: error %T, want *BatchError", workers, err)
		}
		if be.Path != "b-bad.cconf" {
			t.Errorf("workers=%d: failing path %s, want b-bad.cconf (first sorted)", workers, be.Path)
		}
		if be.Error() != seedErr.Error() {
			t.Errorf("workers=%d: message %q, want %q", workers, be.Error(), seedErr.Error())
		}
		var got []string
		for _, r := range results {
			got = append(got, r.Path)
		}
		if fmt.Sprint(got) != "[a-ok.cconf d-ok.cconf]" {
			t.Errorf("workers=%d: results %v, want the two passing paths sorted", workers, got)
		}
	}
}

// TestContentChangeSelfInvalidates: editing a file is picked up with no
// explicit invalidation — keys are content hashes.
func TestContentChangeSelfInvalidates(t *testing.T) {
	fs := MapFS{
		"lib.cinc":  `def val() { return 1; }`,
		"a.cconf":   `import "lib.cinc"; export val();`,
		"raw.cconf": `export 10;`,
	}
	eng := NewEngine()
	res, err := eng.Compile(fs, "a.cconf")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.JSON) != "1" {
		t.Fatalf("got %s, want 1", res.JSON)
	}
	fs["lib.cinc"] = `def val() { return 2; }`
	res, err = eng.Compile(fs, "a.cconf")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.JSON) != "2" {
		t.Errorf("after edit got %s, want 2 (stale cache served)", res.JSON)
	}
}

// TestInvalidatePaths evicts exactly the entries whose closure intersects
// the affected set, and compiles keep working afterwards.
func TestInvalidatePaths(t *testing.T) {
	fs, paths := engineFanoutFS(5)
	fs["solo.cconf"] = `export {standalone: true};`
	all := append(append([]string{}, paths...), "solo.cconf")
	eng := NewEngine()
	eng.Workers = 1
	want := seedCompileAll(t, fs, all)
	if _, err := eng.CompileAll(fs, all); err != nil {
		t.Fatal(err)
	}
	dropped := eng.InvalidatePaths("lib/shared.cinc")
	if dropped == 0 {
		t.Fatal("InvalidatePaths dropped nothing")
	}
	// solo.cconf's result survived: next compile is a result-cache hit.
	before := eng.Counters().Get("result.hit")
	if _, err := eng.Compile(fs, "solo.cconf"); err != nil {
		t.Fatal(err)
	}
	if eng.Counters().Get("result.hit") != before+1 {
		t.Error("solo.cconf was invalidated but its closure is disjoint")
	}
	results, err := eng.CompileAll(fs, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !bytes.Equal(res.JSON, want[res.Path]) {
			t.Errorf("%s differs from seed output after invalidation", res.Path)
		}
	}
}

// TestExportLastWins: exports from imported modules and the root apply in
// statement order, including exports nested in control flow.
func TestExportLastWins(t *testing.T) {
	fs := MapFS{
		"flow.cinc": `
			export {v: 1};
			let pick = 2;
			if (pick > 1) {
				export {v: pick};
			}
		`,
		"use.cconf": `import "flow.cinc"; export {v: 3};`,
		"own.cconf": `import "flow.cinc";
			let y = 1;`,
	}
	want := seedCompileAll(t, fs, []string{"use.cconf"})
	_, seedErr := (&Engine{CacheDisabled: true}).Compile(fs, "own.cconf")
	eng := NewEngine()
	for round := 0; round < 2; round++ {
		res, err := eng.Compile(fs, "use.cconf")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.JSON, want["use.cconf"]) {
			t.Errorf("round %d: use.cconf = %s, want %s", round, res.JSON, want["use.cconf"])
		}
		// own.cconf has no export of its own; seed semantics decide
		// whether an imported module's export satisfies the requirement —
		// the engine must agree either way.
		_, err = eng.Compile(fs, "own.cconf")
		if (err == nil) != (seedErr == nil) || (err != nil && err.Error() != seedErr.Error()) {
			t.Errorf("round %d: own.cconf error = %v, seed = %v", round, err, seedErr)
		}
	}
}
