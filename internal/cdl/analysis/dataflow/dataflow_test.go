package dataflow

import (
	"strings"
	"testing"

	"configerator/internal/cdl"
)

// svRepo is the canonical test tree: one sitevar template feeding a shared
// library feeding two artifacts, plus an unrelated bystander.
func svRepo() cdl.MapFS {
	return cdl.MapFS{
		"sitevars/ratelimit.cinc": "let RATELIMIT = 100;\n",
		"lib/limits.cinc": "import \"sitevars/ratelimit.cinc\";\n" +
			"let LIMIT = RATELIMIT * 2;\nlet NAME = \"api\";\n",
		"svc/api.cconf": "import \"lib/limits.cinc\";\n" +
			"def sitevar(name) {\n\treturn name;\n}\n" +
			"export {limit: LIMIT, tag: sitevar(\"region\"), fixed: 7};\n",
		"svc/web.cconf": "import \"lib/limits.cinc\";\n" +
			"export {limit: LIMIT};\n",
		"svc/other.cconf": "export {standalone: true};\n",
	}
}

func analyzeAll(t *testing.T, fs cdl.MapFS) (*Index, *Repo) {
	t.Helper()
	ix := NewIndex(cdl.NewEngine())
	var roots []string
	for p := range fs {
		if strings.HasSuffix(p, ".cconf") {
			roots = append(roots, p)
		}
	}
	rep := ix.Analyze(fs, roots)
	if len(rep.Errors) > 0 {
		t.Fatalf("analyze errors: %v", rep.Errors)
	}
	return ix, rep
}

func originNames(origins []Origin) []string {
	out := make([]string, 0, len(origins))
	for _, o := range origins {
		out = append(out, string(o.Kind)+":"+o.Name)
	}
	return out
}

func hasOrigin(origins []Origin, kind OriginKind, name string) bool {
	for _, o := range origins {
		if o.Kind == kind && o.Name == name {
			return true
		}
	}
	return false
}

// TestWhyFieldProvenance: per-field origins follow the reference chain
// through the shared library to the sitevar template, and unrelated fields
// stay clean.
func TestWhyFieldProvenance(t *testing.T) {
	_, rep := analyzeAll(t, svRepo())

	limit, err := rep.Why("svc/api.cconf", "limit")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		kind OriginKind
		name string
	}{
		{OriginSitevar, "ratelimit"},
		{OriginModule, "lib/limits.cinc"},
		{OriginModule, "sitevars/ratelimit.cinc"},
		{OriginModule, "svc/api.cconf"},
	} {
		if !hasOrigin(limit, want.kind, want.name) {
			t.Errorf("limit origins missing %s:%s; got %v", want.kind, want.name, originNames(limit))
		}
	}

	fixed, err := rep.Why("svc/api.cconf", "fixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 1 || !hasOrigin(fixed, OriginModule, "svc/api.cconf") {
		t.Errorf("fixed should only depend on its own module, got %v", originNames(fixed))
	}

	tag, err := rep.Why("svc/api.cconf", "tag")
	if err != nil {
		t.Fatal(err)
	}
	if !hasOrigin(tag, OriginSitevar, "region") {
		t.Errorf("tag should carry the sitevar(\"region\") origin, got %v", originNames(tag))
	}
	if hasOrigin(tag, OriginSitevar, "ratelimit") {
		t.Errorf("tag must not inherit the limit field's sitevar, got %v", originNames(tag))
	}

	if _, err := rep.Why("svc/api.cconf", "nope"); err == nil {
		t.Error("unknown field should error")
	}
	if _, err := rep.Why("missing.cconf", ""); err == nil {
		t.Error("unanalyzed root should error")
	}
}

// TestProvenanceClosure: the whole-artifact view includes the closure and
// the winning export's full origin slice.
func TestProvenanceClosure(t *testing.T) {
	_, rep := analyzeAll(t, svRepo())
	p, err := rep.Provenance("svc/web.cconf")
	if err != nil {
		t.Fatal(err)
	}
	wantClosure := []string{"lib/limits.cinc", "sitevars/ratelimit.cinc", "svc/web.cconf"}
	if strings.Join(p.Closure, ",") != strings.Join(wantClosure, ",") {
		t.Errorf("closure = %v, want %v", p.Closure, wantClosure)
	}
	if !hasOrigin(p.Origins, OriginSitevar, "ratelimit") {
		t.Errorf("artifact origins missing the sitevar, got %v", originNames(p.Origins))
	}
	if len(p.Fields) != 1 || p.Fields[0].Field != "limit" {
		t.Errorf("fields = %+v, want one entry for limit", p.Fields)
	}
}

// TestRadiusSitevarEdit: editing one sitevar template reaches exactly the
// two artifacts importing it (directly or via the library) and the
// library's consumer binding — and nothing else.
func TestRadiusSitevarEdit(t *testing.T) {
	_, rep := analyzeAll(t, svRepo())

	rad := rep.Radius([]string{"sitevars/ratelimit.cinc"})
	wantArts := "svc/api.cconf,svc/web.cconf"
	if got := strings.Join(rad.Artifacts, ","); got != wantArts {
		t.Errorf("artifacts = %q, want %q", got, wantArts)
	}
	found := false
	for _, c := range rad.Consumers {
		if c.Kind == OriginSitevar && c.Name == "ratelimit" && c.Site.File == "lib/limits.cinc" {
			found = true
		}
	}
	if !found {
		t.Errorf("consumers should include the library's sitevar import site, got %v", rad.Consumers)
	}
	want := WeightArtifact*float64(len(rad.Artifacts)) + WeightConsumer*float64(len(rad.Consumers))
	if rad.Score != want {
		t.Errorf("score = %v, want %v", rad.Score, want)
	}

	// The token form reaches the same set.
	tok := rep.Radius([]string{"sitevar:ratelimit"})
	if strings.Join(tok.Artifacts, ",") != wantArts {
		t.Errorf("token artifacts = %v, want %q", tok.Artifacts, wantArts)
	}

	// An isolated artifact only reaches itself.
	solo := rep.Radius([]string{"svc/other.cconf"})
	if strings.Join(solo.Artifacts, ",") != "svc/other.cconf" {
		t.Errorf("solo artifacts = %v", solo.Artifacts)
	}
	if len(solo.Consumers) != 0 {
		t.Errorf("solo consumers = %v, want none", solo.Consumers)
	}
}

// TestRadiusCallSiteConsumer: a sitevar("name") call site is a consumer
// binding for that name even though no sitevars/ file exists.
func TestRadiusCallSiteConsumer(t *testing.T) {
	_, rep := analyzeAll(t, svRepo())
	rad := rep.Radius([]string{"sitevar:region"})
	if strings.Join(rad.Artifacts, ",") != "svc/api.cconf" {
		t.Errorf("artifacts = %v, want svc/api.cconf", rad.Artifacts)
	}
	if len(rad.Consumers) != 1 || rad.Consumers[0].Site.File != "svc/api.cconf" {
		t.Errorf("consumers = %v, want the call site in svc/api.cconf", rad.Consumers)
	}
}

// TestDeterminacyConflict: two unordered overlays assigning the same
// exported name with different values is an Error naming both sites.
func TestDeterminacyConflict(t *testing.T) {
	fs := cdl.MapFS{
		"overlays/a.cinc": "let timeout = 5;\n",
		"overlays/b.cinc": "let timeout = 30;\n",
		"svc/app.cconf": "import \"overlays/a.cinc\";\nimport \"overlays/b.cinc\";\n" +
			"export {timeout: timeout};\n",
	}
	_, rep := analyzeAll(t, fs)
	diags := rep.DeterminacyFor(rep.Roots)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly one", diags)
	}
	d := diags[0]
	if d.Analyzer != DeterminacyAnalyzer {
		t.Errorf("analyzer = %q", d.Analyzer)
	}
	if !strings.Contains(d.Message, "overlays/a.cinc:1") ||
		!strings.Contains(d.Message, "overlays/b.cinc:1") {
		t.Errorf("message must name both conflicting sites: %s", d.Message)
	}
}

// TestDeterminacyClean: equal values, ordered overlays, non-exported
// names, and root-owned exports are all deterministic.
func TestDeterminacyClean(t *testing.T) {
	cases := map[string]cdl.MapFS{
		"equal values": {
			"overlays/a.cinc": "let timeout = 5;\n",
			"overlays/b.cinc": "let timeout = 5;\n",
			"svc/app.cconf": "import \"overlays/a.cinc\";\nimport \"overlays/b.cinc\";\n" +
				"export {timeout: timeout};\n",
		},
		"ordered overlays": {
			"overlays/a.cinc": "let timeout = 5;\n",
			"overlays/b.cinc": "import \"overlays/a.cinc\";\nlet timeout = 30;\n",
			"svc/app.cconf":   "import \"overlays/b.cinc\";\nexport {timeout: timeout};\n",
		},
		"conflicting name not exported": {
			"overlays/a.cinc": "let timeout = 5;\nlet keep = 1;\n",
			"overlays/b.cinc": "let timeout = 30;\n",
			"svc/app.cconf": "import \"overlays/a.cinc\";\nimport \"overlays/b.cinc\";\n" +
				"export {keep: keep};\n",
		},
		"root export overrides dep exports": {
			"overlays/a.cinc": "export {v: 1};\n",
			"overlays/b.cinc": "export {v: 2};\n",
			"svc/app.cconf": "import \"overlays/a.cinc\";\nimport \"overlays/b.cinc\";\n" +
				"export {v: 3};\n",
		},
	}
	for name, fs := range cases {
		_, rep := analyzeAll(t, fs)
		if diags := rep.DeterminacyFor(rep.Roots); len(diags) != 0 {
			t.Errorf("%s: unexpected diagnostics: %v", name, diags)
		}
	}
}

// TestDeterminacyExportConflict: two unordered modules exporting into an
// artifact whose root does not export is order-dependent.
func TestDeterminacyExportConflict(t *testing.T) {
	fs := cdl.MapFS{
		"overlays/a.cinc": "export {v: 1};\n",
		"overlays/b.cinc": "export {v: 2};\n",
		"svc/app.cconf":   "import \"overlays/a.cinc\";\nimport \"overlays/b.cinc\";\n",
	}
	_, rep := analyzeAll(t, fs)
	diags := rep.DeterminacyFor(rep.Roots)
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly one", diags)
	}
	if !strings.Contains(diags[0].Message, "overlays/a.cinc:1") ||
		!strings.Contains(diags[0].Message, "overlays/b.cinc:1") {
		t.Errorf("message must name both export sites: %s", diags[0].Message)
	}
}

// TestImportCycleTolerated: a cyclic import pair degrades gracefully (no
// memoization, no hang, no panic) — the import-cycle lint analyzer owns
// the diagnostic.
func TestImportCycleTolerated(t *testing.T) {
	fs := cdl.MapFS{
		"a.cinc":     "import \"b.cinc\";\nlet A = 1;\n",
		"b.cinc":     "import \"a.cinc\";\nlet B = 2;\n",
		"top.cconf":  "import \"a.cinc\";\nexport {a: A};\n",
		"solo.cconf": "export {ok: true};\n",
	}
	ix := NewIndex(cdl.NewEngine())
	rep := ix.Analyze(fs, []string{"top.cconf", "solo.cconf"})
	if _, err := rep.Why("top.cconf", "a"); err != nil {
		t.Fatalf("why through a cycle: %v", err)
	}
	// Cyclic closures are uncacheable: a second analysis recomputes them
	// but still memo-hits the acyclic bystander.
	before := ix.Counters().Snapshot()
	ix.Analyze(fs, []string{"top.cconf", "solo.cconf"})
	after := ix.Counters().Snapshot()
	if after[counterMemo]-before[counterMemo] != 1 {
		t.Errorf("memo delta = %d, want 1 (solo.cconf only)",
			after[counterMemo]-before[counterMemo])
	}
}
