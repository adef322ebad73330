package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"configerator/internal/cdl"
	"configerator/internal/cdl/analysis/dataflow"
)

// DataflowReport is the BENCH_dataflow.json schema: whole-repo provenance
// wall-times (cold vs memo-warm), the incremental cost of a one-file edit,
// and radius-query latency over a fleet-sized synthetic tree.
type DataflowReport struct {
	Workload struct {
		Artifacts int `json:"artifacts"`
		Libs      int `json:"libs"`
		Sitevars  int `json:"sitevars"`
		Files     int `json:"files"`
	} `json:"workload"`
	Provenance struct {
		ColdMs        float64 `json:"cold_ms"`
		WarmMs        float64 `json:"warm_ms"` // min of 3 warm runs
		WarmSpeedup   float64 `json:"warm_speedup"`
		ColdRecompute int     `json:"cold_recompute"`
		WarmMemoHits  int     `json:"warm_memo_hits"`
		EditRecompute int     `json:"edit_recompute"`  // one-sitevar edit: summaries rebuilt
		EditFilesRead int     `json:"edit_files_read"` // and files read, both the cone
	} `json:"provenance"`
	Radius struct {
		Queries      int     `json:"queries"`
		P50Us        float64 `json:"p50_us"`
		P99Us        float64 `json:"p99_us"`
		MaxArtifacts int     `json:"max_artifacts"`
	} `json:"radius"`
}

// dataflowFS builds the synthetic tree: sitevar templates feeding shared
// libraries feeding artifacts, in a fixed topology so counter deltas are
// exact (artifact i uses lib i%L; lib j uses sitevars j%S and (j+1)%S).
func dataflowFS(artifacts, libs, sitevars int) (cdl.MapFS, []string) {
	fs := cdl.MapFS{}
	for s := 0; s < sitevars; s++ {
		fs[fmt.Sprintf("sitevars/sv%d.cinc", s)] =
			fmt.Sprintf("let SV%d = %d;\n", s, 100+s)
	}
	for l := 0; l < libs; l++ {
		a, b := l%sitevars, (l+1)%sitevars
		fs[fmt.Sprintf("lib/lib%d.cinc", l)] = fmt.Sprintf(
			"import \"sitevars/sv%d.cinc\";\nimport \"sitevars/sv%d.cinc\";\n"+
				"let BASE%d = SV%d + SV%d;\nlet NAME%d = \"lib%d\";\n",
			a, b, l, a, b, l, l)
	}
	roots := make([]string, 0, artifacts)
	for i := 0; i < artifacts; i++ {
		l := i % libs
		path := fmt.Sprintf("svc/app%d.cconf", i)
		fs[path] = fmt.Sprintf(
			"import \"lib/lib%d.cinc\";\n"+
				"let scaled = BASE%d * %d;\n"+
				"export {value: scaled, name: NAME%d, rank: %d};\n",
			l, l, i+1, l, i)
		roots = append(roots, path)
	}
	return fs, roots
}

// readCounter is the edited view: fs with one file replaced, counting reads.
type readCounter struct {
	fs            cdl.FileSystem
	path, content string
	reads         int
}

func (c *readCounter) ReadFile(path string) ([]byte, error) {
	c.reads++
	if path == c.path {
		return []byte(c.content), nil
	}
	return c.fs.ReadFile(path)
}

// Dataflow measures the whole-repo analysis (internal/cdl/analysis/dataflow)
// at fleet shape: cold Analyze parses and summarizes every module; a warm
// Analyze over the unchanged tree must be pure memo hits (the ISSUE
// acceptance: >= 5x faster); a one-sitevar edit derived from that snapshot
// reads and recomputes exactly its provenance cone; and blast-radius queries
// answer in microseconds.
func Dataflow(opts Options) Result {
	artifacts, libs, sitevars := 1000, 200, 100
	if opts.Quick {
		artifacts, libs, sitevars = 300, 60, 30
	}
	fs, roots := dataflowFS(artifacts, libs, sitevars)

	ix := dataflow.NewIndex(cdl.NewEngine())

	coldStart := time.Now()
	rep := ix.Analyze(fs, roots)
	coldDur := time.Since(coldStart)
	if len(rep.Errors) > 0 {
		panic(fmt.Sprintf("dataflow analyze errors: %v", rep.Errors))
	}
	cold := ix.Counters().Snapshot()

	// Warm: min of 3 runs against the populated memo (what every pipeline
	// Submit and strip-gate check pays after the first analysis).
	warmDur := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		rep = ix.Analyze(fs, roots)
		if d := time.Since(start); d < warmDur {
			warmDur = d
		}
	}
	warm := ix.Counters().Snapshot()

	// One-sitevar edit, derived from the warm snapshot the way the pipeline
	// derives a change's view: only the cone (the sitevar, every lib
	// importing it, every artifact on those libs) is read and rebuilt.
	edited := &readCounter{fs: fs, path: "sitevars/sv0.cinc", content: "let SV0 = 999;\n"}
	editStart := time.Now()
	rep = rep.Derive(edited, []string{edited.path}, nil, nil)
	editDur := time.Since(editStart)
	after := ix.Counters().Snapshot()

	// Radius queries, alternating external-input tokens and file paths.
	queries := 32
	maxArts := 0
	durs := make([]time.Duration, 0, queries)
	for q := 0; q < queries; q++ {
		var changed string
		if q%2 == 0 {
			changed = fmt.Sprintf("sitevars/sv%d.cinc", q%sitevars)
		} else {
			changed = fmt.Sprintf("lib/lib%d.cinc", q%libs)
		}
		start := time.Now()
		rad := rep.Radius([]string{changed})
		durs = append(durs, time.Since(start))
		if len(rad.Artifacts) > maxArts {
			maxArts = len(rad.Artifacts)
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p50 := durs[len(durs)/2]
	p99 := durs[len(durs)*99/100]

	var out DataflowReport
	out.Workload.Artifacts = artifacts
	out.Workload.Libs = libs
	out.Workload.Sitevars = sitevars
	out.Workload.Files = len(fs)
	out.Provenance.ColdMs = float64(coldDur.Microseconds()) / 1000
	out.Provenance.WarmMs = float64(warmDur.Microseconds()) / 1000
	if warmDur > 0 {
		out.Provenance.WarmSpeedup = float64(coldDur) / float64(warmDur)
	}
	out.Provenance.ColdRecompute = int(cold["provenance.recompute"])
	out.Provenance.WarmMemoHits = int(warm["provenance.memo"] - cold["provenance.memo"])
	out.Provenance.EditRecompute = int(after["provenance.recompute"] - warm["provenance.recompute"])
	out.Provenance.EditFilesRead = edited.reads
	out.Radius.Queries = queries
	out.Radius.P50Us = float64(p50.Nanoseconds()) / 1000
	out.Radius.P99Us = float64(p99.Nanoseconds()) / 1000
	out.Radius.MaxArtifacts = maxArts

	r := Result{ID: "dataflow", Title: "whole-repo dataflow: memoized provenance, incremental edits, radius queries"}
	r.metric("files", float64(len(fs)), 0, false)
	r.metric("cold_analyze_ms", out.Provenance.ColdMs, 0, false)
	r.metric("warm_analyze_ms", out.Provenance.WarmMs, 0, false)
	r.metric("warm_speedup", out.Provenance.WarmSpeedup, 0, false)
	r.metric("cold_recompute", float64(out.Provenance.ColdRecompute), 0, false)
	r.metric("edit_recompute", float64(out.Provenance.EditRecompute), 0, false)
	r.metric("edit_files_read", float64(out.Provenance.EditFilesRead), 0, false)
	r.metric("edit_analyze_ms", float64(editDur.Microseconds())/1000, 0, false)
	r.metric("radius_p50_us", out.Radius.P50Us, 0, false)
	r.metric("radius_p99_us", out.Radius.P99Us, 0, false)

	r.Text = fmt.Sprintf(
		"tree: %d artifacts, %d libs, %d sitevars (%d files)\n"+
			"cold analyze: %.2f ms (%d module summaries built)\n"+
			"warm analyze: %.3f ms, %.0fx speedup (%d memo hits, 0 rebuilds)\n"+
			"one-sitevar edit: %.2f ms, %d summaries rebuilt (the provenance cone), %d files read\n"+
			"radius queries: p50 %.1f us, p99 %.1f us over %d queries (max %d artifacts)\n",
		artifacts, libs, sitevars, len(fs),
		out.Provenance.ColdMs, out.Provenance.ColdRecompute,
		out.Provenance.WarmMs, out.Provenance.WarmSpeedup, out.Provenance.WarmMemoHits,
		float64(editDur.Microseconds())/1000, out.Provenance.EditRecompute, out.Provenance.EditFilesRead,
		out.Radius.P50Us, out.Radius.P99Us, queries, maxArts)

	art, _ := json.MarshalIndent(out, "", "  ")
	r.ArtifactName = "BENCH_dataflow.json"
	r.Artifact = art
	return r
}
