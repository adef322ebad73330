package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// buildGoldenTrace assembles one fully-featured trace by hand: nested
// spans, an open span, attributes inserted out of key order, aliases
// added out of lexical order, and a commit→observer→proxy distribution
// hop — every encoder branch the CLI's `trace -json` output exercises.
func buildGoldenTrace() *Trace {
	r := New()
	tr := r.StartTrace("change-1", at(0))
	r.Alias(tr, "deadbeef")
	r.Alias(tr, "cafe1234")
	tr.Annotate("author", "demo")
	tr.Annotate("adopted", true)

	lint := tr.Span("lint", at(10*time.Millisecond))
	lint.End(at(25 * time.Millisecond))

	prop := tr.Span("propagate", at(30*time.Millisecond))
	tr.SetDistParent(prop)
	r.BindPath("/cfg/demo", tr)
	r.PathEvent("/cfg/demo", PropEvent{
		Stage: EvZeusCommit, Node: "leader", Zxid: 7, At: at(40 * time.Millisecond),
	})
	r.PathEvent("/cfg/demo", PropEvent{
		Stage: EvObserverApply, Node: "obs-1", Zxid: 7, At: at(55 * time.Millisecond),
	})
	r.PathEvent("/cfg/demo", PropEvent{
		Stage: EvProxyMaterialize, Node: "proxy-1", Via: "obs-1", Zxid: 7, At: at(62 * time.Millisecond),
	})
	prop.End(at(70 * time.Millisecond))

	open := tr.Span("watchers", at(70*time.Millisecond))
	_ = open // deliberately left open: encodes without end_ms
	tr.EndAt(at(80 * time.Millisecond))
	return tr
}

// TestTraceJSONGolden pins the exact bytes the trace's JSON form takes in
// compact form: stable key order, sorted aliases and attrs, millisecond
// offsets. `configerator trace -json` prints the same value indented. Run
// with -update to rewrite the golden.
func TestTraceJSONGolden(t *testing.T) {
	got := string(marshal(t, buildGoldenTrace()))

	goldenPath := filepath.Join("testdata", "trace_json.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got+"\n" != string(want) {
		t.Errorf("trace JSON drifted from golden:\n got: %s\nwant: %s", got, want)
	}
	var decoded traceJSON
	if err := json.Unmarshal([]byte(got), &decoded); err != nil || decoded.Key != "change-1" {
		t.Fatalf("decoded key = %q (%v)", decoded.Key, err)
	}
}

// TestTraceJSONDeterministic pins that the encoding is a pure function of
// the trace contents: re-rendering and rebuilding both yield identical
// bytes, and aliases/attrs come out sorted regardless of insert order.
func TestTraceJSONDeterministic(t *testing.T) {
	tr := buildGoldenTrace()
	first := string(marshal(t, tr))
	for i := 0; i < 3; i++ {
		if again := string(marshal(t, tr)); again != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, again, first)
		}
	}
	if rebuilt := string(marshal(t, buildGoldenTrace())); rebuilt != first {
		t.Fatalf("rebuilt trace differs:\n%s\nvs\n%s", rebuilt, first)
	}
	if got := string(marshal(t, (*Trace)(nil))); got != "null" {
		t.Fatalf("nil trace JSON = %q", got)
	}
}

// TestTraceJSONEscapes: key, alias, span name and attrs holding control
// bytes, DEL, invalid UTF-8, quotes, backslashes, HTML metacharacters and
// U+2028 encode as valid JSON that decodes back to what was recorded.
// Invalid UTF-8 cannot round-trip: encoding/json writes each invalid byte
// as U+FFFD, so that is what the decoded string must hold.
func TestTraceJSONEscapes(t *testing.T) {
	const s = "fix \x01 \x7f \xff \" \\ <&> \u2028 and \xff"
	roundTrip(t, s, s, s)
}

// FuzzTraceJSON: whatever strings a trace carries, its JSON form is valid
// and decodes back to them (invalid UTF-8 as U+FFFD).
func FuzzTraceJSON(f *testing.F) {
	f.Fuzz(roundTrip)
}

// roundTrip encodes a trace keyed key, aliased alias, with one span named
// attr carrying attr=attr, and checks that the JSON decodes back to them.
func roundTrip(t *testing.T, key, alias, attr string) {
	r := New()
	tr := r.StartTrace(key, at(0))
	r.Alias(tr, alias)
	tr.Span(attr, at(0)).Attr(attr, attr)
	var got traceJSON
	if err := json.Unmarshal(marshal(t, tr), &got); err != nil {
		t.Fatal(err)
	}
	decoded := func(s string) string { return string([]rune(s)) } // each invalid byte → U+FFFD
	if key == "" {
		key = "change-1"
	}
	if got.Key != decoded(key) {
		t.Errorf("key = %q, want %q", got.Key, decoded(key))
	}
	if want := []string{decoded(alias)}; alias != "" && !slices.Equal(got.Aliases, want) ||
		alias == "" && len(got.Aliases) != 0 {
		t.Errorf("aliases = %q, want %q", got.Aliases, alias)
	}
	if c := got.Root.Children; len(c) != 1 || c[0].Name != decoded(attr) || len(c[0].Attrs) != 1 ||
		c[0].Attrs[decoded(attr)] != decoded(attr) {
		t.Errorf("span = %+v, want %q with %[2]q=%[2]q", c, decoded(attr))
	}
}

// marshal encodes v and fails the test unless the result is valid JSON.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil || !json.Valid(data) {
		t.Fatalf("encoding %T: %v\n%s", v, err, data)
	}
	return data
}
