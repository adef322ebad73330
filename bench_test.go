package configerator

// The benchmark harness: one benchmark per table and figure in the paper's
// evaluation (Section 6) plus the design-choice ablations from DESIGN.md.
// Each benchmark regenerates its experiment through internal/experiments
// (the same code cmd/benchreport uses for EXPERIMENTS.md), reports the
// headline number via b.ReportMetric, and prints the full rows/series once
// so `go test -bench=.` reproduces the paper's output shapes.
//
// Micro-benchmarks at the bottom measure the real (wall-clock) cost of the
// hot paths: CDL compilation, Gatekeeper checks, repository commits, line
// diffs, and canonical JSON.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"configerator/internal/canary"
	"configerator/internal/cdl"
	"configerator/internal/cdl/analysis/dataflow"
	"configerator/internal/cluster"
	"configerator/internal/confclient"
	"configerator/internal/core"
	"configerator/internal/experiments"
	"configerator/internal/gatekeeper"
	"configerator/internal/health"
	"configerator/internal/landingstrip"
	"configerator/internal/monitor"
	"configerator/internal/obs"
	"configerator/internal/packagevessel"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/stats"
	"configerator/internal/vclock"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

// benchOpts picks the experiment scale: -short runs the quick variants.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 42, Quick: testing.Short()}
}

var printed sync.Map

// report prints an experiment's output once per benchmark and republishes
// its headline metrics on the benchmark line.
func report(b *testing.B, r experiments.Result, headline ...string) {
	b.Helper()
	if _, dup := printed.LoadOrStore(b.Name(), true); !dup {
		fmt.Printf("\n== %s: %s ==\n%s\n", r.ID, r.Title, r.Text)
	}
	for _, h := range headline {
		if v, ok := r.Metrics[h]; ok {
			b.ReportMetric(v, h)
		}
	}
}

// ---- Figures and tables ----

func BenchmarkFig07_ConfigGrowth(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7ConfigGrowth(benchOpts())
	}
	report(b, r, "compiled_share_at_end")
}

func BenchmarkFig08_ConfigSizeCDF(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8ConfigSizes(benchOpts())
	}
	report(b, r, "raw_p50_bytes", "compiled_p50_bytes")
}

func BenchmarkFig09_Freshness(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9Freshness(benchOpts())
	}
	report(b, r, "touched_within_90d", "untouched_for_300d")
}

func BenchmarkFig10_AgeAtUpdate(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10AgeAtUpdate(benchOpts())
	}
	report(b, r, "updates_on_configs_younger_60d", "updates_on_configs_older_300d")
}

func BenchmarkTable1_UpdatesPerConfig(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table1UpdatesPerConfig(benchOpts())
	}
	report(b, r, "compiled_written_once", "raw_written_once", "raw_top1pct_update_share")
}

func BenchmarkTable2_LineChanges(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table2LineChanges(benchOpts())
	}
	report(b, r, "compiled_two_line_updates")
}

func BenchmarkTable3_CoAuthors(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table3CoAuthors(benchOpts())
	}
	report(b, r, "compiled_single_author", "raw_single_author")
}

func BenchmarkFig11_DailyCommits(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11DailyCommits(benchOpts())
	}
	report(b, r, "configerator_weekend_ratio", "www_weekend_ratio", "fbcode_weekend_ratio")
}

func BenchmarkFig12_HourlyCommits(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12HourlyCommits(benchOpts())
	}
	report(b, r, "peak_to_trough_ratio")
}

func BenchmarkFig13_CommitThroughput(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13CommitThroughput(benchOpts())
	}
	report(b, r, "throughput_small_repo_per_min", "throughput_1M_files_per_min")
}

func BenchmarkFig14_PropagationLatency(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14PropagationLatency(benchOpts())
	}
	report(b, r, "baseline_latency_s", "peak_over_baseline")
}

func BenchmarkFig15_GatekeeperChecks(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig15GatekeeperChecks(benchOpts())
	}
	report(b, r, "pass_rate", "sitewide_peak_billion_per_sec")
}

func BenchmarkSec64_ConfigErrors(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Sec64ConfigErrors(benchOpts())
	}
	report(b, r, "escape_share_type1", "escape_share_type2", "escape_share_type3")
}

// ---- Ablations ----

func BenchmarkAblation_PushVsPull(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationPushVsPull(benchOpts())
	}
	report(b, r, "pull_over_push_messages")
}

func BenchmarkAblation_LandingStrip(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationLandingStrip(benchOpts())
	}
	report(b, r, "speedup")
}

func BenchmarkAblation_MultiRepo(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationMultiRepo(benchOpts())
	}
	report(b, r, "speedup")
}

func BenchmarkAblation_P2PvsCentral(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationP2PvsCentral(benchOpts())
	}
	report(b, r, "speedup")
}

func BenchmarkAblation_GatekeeperOptimizer(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationGatekeeperOptimizer(benchOpts())
	}
	report(b, r, "saving_factor")
}

func BenchmarkAblation_MobileDelta(b *testing.B) {
	var r experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationMobileDelta(benchOpts())
	}
	report(b, r, "bandwidth_saving")
}

// ---- Micro-benchmarks of the real hot paths ----

var benchFS = cdl.MapFS{
	"scheduler/job.cinc": `
		schema Job {
			1: string name;
			2: i32 priority = 1;
			3: list<string> tags = [];
			4: map<string, i64> limits = {};
		}
		validator Job(c) { assert(c.priority >= 0 && c.priority <= 10, "range"); }
		def create_job(name, prio) {
			return Job{name: name, priority: prio, tags: ["managed", name]};
		}
	`,
	"cache/job.cconf": `
		import "scheduler/job.cinc";
		export create_job("cache", 3);
	`,
}

func BenchmarkCDLCompile(b *testing.B) {
	eng := cdl.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Compile(benchFS, "cache/job.cconf"); err != nil {
			b.Fatal(err)
		}
	}
}

// fanoutBenchFS mirrors the paper's recompile fan-out: one shared .cinc
// imported by n top-level configs (§3.1 dependency tracking, §3.3 CI
// double-compiles).
func fanoutBenchFS(n int) (cdl.MapFS, []string) {
	fs := cdl.MapFS{
		"lib/shared.cinc": `
			schema Job {
				1: string name;
				2: i32 priority = 1;
				3: list<string> tags = [];
				4: map<string, i64> limits = {};
			}
			validator Job(c) { assert(c.priority >= 0 && c.priority <= 10, "range"); }
			let total = 0;
			for (i in range(400)) {
				total = total + i * i;
			}
			def mk(name, prio) {
				return Job{name: name, priority: prio, tags: ["managed", name], limits: {"budget": total}};
			}
			export mk("shared-default", 1);
		`,
	}
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("svc/app%03d.cconf", i)
		fs[p] = fmt.Sprintf("import \"lib/shared.cinc\";\nexport mk(\"svc-%03d\", %d);\n", i, i%10)
		paths = append(paths, p)
	}
	return fs, paths
}

// BenchmarkCDLCompileFanout compiles 100 configs that all import one shared
// .cinc: the seed serial path re-parses and re-evaluates the .cinc per
// dependent, the cold engine parses every source exactly once (and still
// evaluates the .cinc per dependent), and the warm engine serves the whole
// batch from the result cache.
func BenchmarkCDLCompileFanout(b *testing.B) {
	fs, paths := fanoutBenchFS(100)
	b.Run("seed-serial", func(b *testing.B) {
		eng := &cdl.Engine{CacheDisabled: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range paths {
				if _, err := eng.Compile(fs, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := cdl.NewEngine()
			if _, err := eng.CompileAll(fs, paths); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine-warm", func(b *testing.B) {
		eng := cdl.NewEngine()
		if _, err := eng.CompileAll(fs, paths); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.CompileAll(fs, paths); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCDLCompileAllWorkers compares a cold batch compile run serially
// (Workers=1) against the parallel worker pool. Output is byte-identical
// either way; only wall-clock differs (and only on multi-core hosts).
func BenchmarkCDLCompileAllWorkers(b *testing.B) {
	fs, paths := fanoutBenchFS(100)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := cdl.NewEngine()
				eng.Workers = w
				if _, err := eng.CompileAll(fs, paths); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCDLEvalExpr(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cdl.EvalExpr(`{rate: 0.05 * 2, hosts: ["a", "b"], on: 1 < 2}`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatekeeperCheck(b *testing.B) {
	reg := gatekeeper.NewRegistry(nil)
	rt := gatekeeper.NewRuntime(reg)
	spec := &gatekeeper.ProjectSpec{Project: "P", Rules: []gatekeeper.RuleSpec{
		{
			Restraints: []gatekeeper.RestraintSpec{
				{Name: "country", Params: gatekeeper.Params{"in": []string{"US", "CA"}}},
				{Name: "app_version_at_least", Params: gatekeeper.Params{"version": 100.0}},
			},
			PassProbability: 0.10,
		},
		{
			Restraints:      []gatekeeper.RestraintSpec{{Name: "always"}},
			PassProbability: 0.01,
		},
	}}
	if err := rt.Load(spec.Encode()); err != nil {
		b.Fatal(err)
	}
	u := &gatekeeper.User{ID: 1, Country: "US", AppVersion: 120, Now: vclock.Epoch}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.ID = int64(i)
		rt.Check("P", u)
	}
}

func BenchmarkVCSCommit(b *testing.B) {
	repo := vcs.NewRepository("bench")
	content := []byte(`{"a":1,"b":[1,2,3],"c":"value"}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		repo.CommitChanges("bench", "change", vclock.Epoch,
			vcs.Change{Path: fmt.Sprintf("f%d.json", i%1000), Content: content})
	}
}

func BenchmarkDiffLines(b *testing.B) {
	oldC := make([]byte, 0, 4096)
	newC := make([]byte, 0, 4096)
	for i := 0; i < 100; i++ {
		oldC = append(oldC, []byte(fmt.Sprintf("line %d\n", i))...)
		if i == 50 {
			newC = append(newC, []byte("changed line\n")...)
		} else {
			newC = append(newC, []byte(fmt.Sprintf("line %d\n", i))...)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vcs.DiffLines(oldC, newC)
	}
}

func BenchmarkCanonicalJSON(b *testing.B) {
	v := cdl.Map{
		"name":    cdl.Str("cache"),
		"weights": cdl.List{cdl.Float(0.1), cdl.Float(0.2), cdl.Float(0.7)},
		"limits":  cdl.Map{"mem": cdl.Int(512), "cpu": cdl.Int(4)},
		"enabled": cdl.Bool(true),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cdl.MarshalJSON(v); err != nil {
			b.Fatal(err)
		}
	}
}

// oneObserverStack boots a three-member ensemble with observer "obs-1" in
// cluster us/web and a writer client, and runs it until a leader is elected.
func oneObserverStack() (*simnet.Network, *zeus.Ensemble, *zeus.Observer, *zeus.Client) {
	net := simnet.New(simnet.DefaultLatency(), 7)
	ens := zeus.StartEnsemble(net, 3, []simnet.Placement{
		{Region: "us", Cluster: "zk1"},
		{Region: "us", Cluster: "zk2"},
		{Region: "eu", Cluster: "zk3"},
	})
	observer := ens.AddObserver("obs-1", simnet.Placement{Region: "us", Cluster: "web"})
	wc := zeus.NewClient("writer", ens.Members)
	net.AddNode("writer", simnet.Placement{Region: "us", Cluster: "ctrl"}, wc)
	net.RunFor(10 * time.Second)
	return net, ens, observer, wc
}

// readpathStack boots a one-proxy pipeline, commits one config, and warms
// it: the fixture for the read-hot-path micro-benchmarks below. With
// withMonitor the fleet-health plane is attached (proxy heartbeats plus a
// sweeping monitor) before warmup, so the benchmarks double as the gate
// that monitoring never touches the read hot path.
func readpathStack(b *testing.B, withObs, withMonitor bool) (*simnet.Network, *confclient.Client, *proxy.Proxy, string) {
	b.Helper()
	net, ens, _, wc := oneObserverStack()
	px := proxy.New(net, "proxy-1", simnet.Placement{Region: "us", Cluster: "web"},
		[]simnet.NodeID{"obs-1"}, nil)
	cl := confclient.New(px)
	var reg *obs.Registry
	if withObs || withMonitor {
		reg = obs.New()
	}
	if withObs {
		cl.SetObs(reg)
	}
	if withMonitor {
		m := monitor.New(monitor.Config{
			ID: "mon", Ensemble: ens, Obs: reg,
			SweepEvery: 500 * time.Millisecond, HeartbeatEvery: 200 * time.Millisecond,
			SLOs: []*monitor.SLO{monitor.ConvergenceSLO(0.99, 2*time.Second)},
		})
		m.Attach(net, simnet.Placement{Region: "us", Cluster: "web"})
		px.EnableMonitor("mon", 200*time.Millisecond)
	}
	const path = "/configs/bench/hot"
	done := false
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "writer")
		wc.Write(&ctx, path, []byte(`{"enabled":true,"batch":64,"rate":0.25}`),
			func(zeus.WriteResult) { done = true })
	})
	for i := 0; i < 100 && !done; i++ {
		net.RunFor(200 * time.Millisecond)
	}
	if !done {
		b.Fatal("write never committed")
	}
	px.Want(path)
	net.RunFor(5 * time.Second)
	if _, err := cl.Get(context.Background(), path); err != nil { // warm: first-read event + decode
		b.Fatal(err)
	}
	return net, cl, px, path
}

// BenchmarkProxyReadWarm: one atomic snapshot load plus map lookups. The
// final AllocsPerRun check turns the benchmark into a regression gate —
// a warm Read must stay at 0 allocs/op, with and without the fleet-health
// monitoring plane attached (heartbeats ride the sim loop, never reads), and
// so must a stale Read of the on-disk copy while the proxy is down.
func BenchmarkProxyReadWarm(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		withMonitor bool
		crashed     bool
	}{{"bare", false, false}, {"monitored", true, false}, {"stale", false, true}} {
		b.Run(cfg.name, func(b *testing.B) {
			net, _, px, path := readpathStack(b, true, cfg.withMonitor)
			want := proxy.SourceFresh
			if cfg.crashed {
				net.Fail(px.ID())
				want = proxy.SourceStale
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := px.Read(path); !res.OK || res.Source != want {
					b.Fatal("warm read failed")
				}
			}
			b.StopTimer()
			if a := testing.AllocsPerRun(100, func() { px.Read(path) }); a != 0 {
				b.Fatalf("warm proxy.Read (%s) allocates %.1f per op, want 0", cfg.name, a)
			}
		})
	}
}

// BenchmarkClientGetWarm: proxy read plus memoized decode lookup, with and
// without an obs registry attached. The no-obs variant exercises the no-op
// counter sink hoisted in confclient.New — attaching real counters must not
// change the allocation count, and nil-safety costs nothing per call. The
// stale variant reads with the proxy down: a content-hash decode lookup and
// one Value, its only allocation.
func BenchmarkClientGetWarm(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		withObs     bool
		withMonitor bool
		crashed     bool
	}{{"no-obs", false, false, false}, {"with-obs", true, false, false}, {"monitored", true, true, false}, {"stale", true, false, true}} {
		b.Run(cfg.name, func(b *testing.B) {
			net, cl, px, path := readpathStack(b, cfg.withObs, cfg.withMonitor)
			want, wantAllocs := proxy.SourceFresh, 0.0
			if cfg.crashed {
				net.Fail(px.ID())
				want, wantAllocs = proxy.SourceStale, 1
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := cl.Get(ctx, path)
				if err != nil || v.Source != want || v.Int("batch", 0) != 64 {
					b.Fatal("warm get failed")
				}
			}
			b.StopTimer()
			if a := testing.AllocsPerRun(100, func() { cl.Get(ctx, path) }); a != wantAllocs {
				b.Fatalf("warm Get (%s) allocates %.1f per op, want %.0f", cfg.name, a, wantAllocs)
			}
		})
	}
}

func BenchmarkUserSampling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats.HashFloat("ProjectX:123456789")
	}
}

// stripRepoWidth is the most entries any directory of a stripRepo holds.
const stripRepoWidth = 32

// stripRepoPath names file i of an n-file repository (n a multiple of
// stripRepoWidth): leaves hold stripRepoWidth files each and sit under as
// many levels of at most stripRepoWidth directories as n needs, so a larger
// repository is deeper, never wider.
func stripRepoPath(i, n int) string {
	const w = stripRepoWidth
	path := fmt.Sprintf("f%02d.json", i%w)
	// Bottom up: dir is the directory holding file i among the dirs of its
	// level.
	for dir, dirs := i/w, n/w; dirs > 1; dir, dirs = dir/w, (dirs+w-1)/w {
		path = fmt.Sprintf("%02d/", dir%w) + path
	}
	return path
}

// wideRepoPath names file i of an n-file repository that holds them all in
// one directory.
func wideRepoPath(i, n int) string { return fmt.Sprintf("wide/f%05d.json", i) }

// stripRepo returns a landing strip over a repository of n real files, laid
// out by path.
func stripRepo(n int, path func(i, n int) string) *landingstrip.Strip {
	repo := vcs.NewRepository("bench")
	changes := make([]vcs.Change, n)
	for i := range changes {
		changes[i] = vcs.Change{Path: path(i, n), Content: []byte(fmt.Sprintf(`{"file":%d}`, i))}
	}
	repo.CommitChanges("import", "import", vclock.Epoch, changes...)
	return landingstrip.New(repo, vcs.DefaultCostModel())
}

// landOneFileCommits lands count single-file edits, each cloned at head,
// through the strip, and returns the bytes allocated per commit.
func landOneFileCommits(tb testing.TB, strip *landingstrip.Strip, path func(i, n int) string, n, count int) float64 {
	repo, now := strip.Repo(), vclock.Epoch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < count; i++ {
		wc := repo.Clone("eng")
		wc.Write(path(i*7919%n, n), []byte(fmt.Sprintf(`{"v":%d}`, i)))
		res := strip.Submit(wc.Diff("c"), now)
		if res.Err != nil {
			tb.Fatal(res.Err)
		}
		now = res.Finish
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(count)
}

var stripRepoSizes = []struct {
	name  string
	files int
}{{"1k", 1 << 10}, {"8k", 8 << 10}, {"64k", 64 << 10}}

// BenchmarkLandingStripThroughput: real wall-clock cost of our own store
// under single-file commits, by repository size at a fixed directory width
// (the virtual cost model is benchmarked by BenchmarkFig13). A commit copies
// the directories on the path to its change, so the cost follows the depth,
// not the file count.
func BenchmarkLandingStripThroughput(b *testing.B) {
	for _, size := range stripRepoSizes {
		b.Run("files="+size.name, func(b *testing.B) {
			strip := stripRepo(size.files, stripRepoPath)
			b.ReportAllocs()
			b.ResetTimer()
			landOneFileCommits(b, strip, stripRepoPath, size.files, b.N)
		})
	}
}

// TestCommitCostFollowsChangeNotRepoSize is the O(changed) gate: a one-file
// commit into 64k files may allocate at most twice what it does into 1k.
func TestCommitCostFollowsChangeNotRepoSize(t *testing.T) {
	checkCommitCostFollowsChange(t, stripRepoPath)
}

// TestCommitCostFollowsChangeNotDirectoryWidth is the gate's width row: with
// every file in one directory, the same bound holds. A wide directory is
// chunked, so a commit copies one chunk and the index above it, not the
// directory.
func TestCommitCostFollowsChangeNotDirectoryWidth(t *testing.T) {
	checkCommitCostFollowsChange(t, wideRepoPath)
}

// checkCommitCostFollowsChange lands one-file commits into the smallest and
// the largest stripRepoSizes repository, laid out by path, and fails when the
// larger allocates more than twice as much per commit.
func checkCommitCostFollowsChange(t *testing.T, path func(i, n int) string) {
	const commits = 200
	small, large := stripRepoSizes[0], stripRepoSizes[len(stripRepoSizes)-1]
	smallBytes := landOneFileCommits(t, stripRepo(small.files, path), path, small.files, commits)
	largeBytes := landOneFileCommits(t, stripRepo(large.files, path), path, large.files, commits)
	t.Logf("bytes allocated per one-file commit: %.0f at %s files, %.0f at %s files", smallBytes, small.name, largeBytes, large.name)
	if largeBytes > 2*smallBytes {
		t.Errorf("a one-file commit allocates %.0f B at %s files, more than twice the %.0f B at %s files",
			largeBytes, large.name, smallBytes, small.name)
	}
}

// waveBody is a config of about size bytes: a header line carrying the
// revision, then lines a small edit keeps. A rewrite flips the tag on every
// line, first byte and last line included, so the delta encoder finds nothing
// shared at either end and ships the whole body.
func waveBody(size, rev int, tag byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%c rev = %08d\n", tag, rev)
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "tier.%04d.%c = steady-state-value\n", i, tag)
	}
	fmt.Fprintf(&b, "end %c\n", tag)
	return b.Bytes()
}

// waveAllocBytes fans one small edit and then one whole-body rewrite of a
// config of about size bytes out to a warm fleet of n proxies behind one
// observer, and returns the heap bytes allocated while each wave ran, commit
// to last materialisation. Every proxy must end each wave serving the
// committed bytes under the digest Zeus computed for them.
func waveAllocBytes(t *testing.T, size, n int) (edit, rewrite float64) {
	t.Helper()
	net, _, observer, wc := oneObserverStack()
	web := simnet.Placement{Region: "us", Cluster: "web"}

	const path = "/configs/wave"
	var proxies []*proxy.Proxy
	wave := func(data []byte) float64 {
		net.After(0, func() {
			ctx := simnet.MakeContext(net, "writer")
			wc.Write(&ctx, path, data, func(zeus.WriteResult) {})
		})
		// Two sources of noise are the runtime's, not the wave's. A collection
		// that starts mid-wave empties the sync.Pools (zeus's batch scratch
		// among them), and their refill is counted as the wave's; so two
		// collections first leave every pool empty, and the collector is
		// held off for the wave. And restarting the world after a stop (the
		// MemStats read below) may start an OS thread for an idle P, about
		// 5 KB of runtime allocations; with one P there is no idle P to wake.
		runtime.GC()
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		// MemStats rather than runtime/metrics' /gc/heap/allocs:bytes: the
		// latter only moves when an allocation span is retired, in steps as
		// large as a 50-proxy wave.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net.RunFor(2 * time.Second) // one keep-alive round per proxy, whatever its phase
		runtime.ReadMemStats(&after)
		rec := observer.Tree().Get(path)
		if rec == nil || !bytes.Equal(rec.Data, data) {
			t.Fatalf("%d B to %d proxies: the write never reached the observer", size, n)
		}
		for _, px := range proxies {
			if res := px.Read(path); !res.OK || !bytes.Equal(res.Data, data) || res.Hash != rec.Hash {
				t.Fatalf("%d B to %d proxies: %s serves %d bytes under digest %x, want the %d committed under %x",
					size, n, px.ID(), len(res.Data), res.Hash, len(data), rec.Hash)
			}
		}
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	wave(waveBody(size, 0, 'a'))
	for i := 0; i < n; i++ {
		px := proxy.New(net, simnet.NodeID(fmt.Sprintf("proxy-%04d", i)), web, []simnet.NodeID{"obs-1"}, nil)
		px.Want(path)
		proxies = append(proxies, px)
	}
	net.RunFor(5 * time.Second)
	return wave(waveBody(size, 1, 'a')), wave(waveBody(size, 2, 'b'))
}

// TestWaveCostFollowsContentNotFleetSize is the distribution plane's
// O(content) gate: a pushed version is materialised once and shared, so each
// further proxy a wave reaches adds bookkeeping — one entry state, the event
// that carried it — and never a copy of the body or of the proxy's cell table.
// What a proxy adds is measured against the same wave to a fleet of one (which
// already pays everything that is per wave: the ensemble's copies, the encode,
// the one materialisation); it must be at most perProxyBytes for a 2 KB and a
// 32 KB config alike, and the same at 50 proxies and at 500: within 10 %, or
// within slackBytes of runtime wobble spread over the smaller fleet — at
// ~130 B per proxy one stray kilobyte across 49 proxies is already over 10 %.
// Counts, not clocks.
func TestWaveCostFollowsContentNotFleetSize(t *testing.T) {
	const small, large = 50, 500
	const perProxyBytes, slackBytes = 200, 2 << 10
	for _, size := range []int{2 << 10, 32 << 10} {
		var edit, rewrite [3]float64 // fleets of 1, small, large
		for i, n := range []int{1, small, large} {
			edit[i], rewrite[i] = waveAllocBytes(t, size, n)
		}
		for _, kind := range []struct {
			name  string
			bytes [3]float64
		}{{"small edit", edit}, {"whole-body rewrite", rewrite}} {
			perSmall := (kind.bytes[1] - kind.bytes[0]) / (small - 1)
			perLarge := (kind.bytes[2] - kind.bytes[0]) / (large - 1)
			t.Logf("%d B config, %s: %.0f B per wave at one proxy; each further proxy adds %.0f B at %d, %.0f B at %d",
				size, kind.name, kind.bytes[0], perSmall, small, perLarge, large)
			if perSmall > perProxyBytes || perLarge > perProxyBytes {
				t.Errorf("%d B config, %s: a further proxy allocates %.0f B at %d proxies and %.0f B at %d, want at most %d B",
					size, kind.name, perSmall, small, perLarge, large, perProxyBytes)
			}
			if diff := math.Abs(perLarge - perSmall); diff > 0.1*min(perSmall, perLarge) && diff > slackBytes/(small-1) {
				t.Errorf("%d B config, %s: a further proxy allocates %.0f B at %d proxies but %.0f B at %d, want within 10%% or %d B",
					size, kind.name, perSmall, small, perLarge, large, slackBytes/(small-1))
			}
		}
	}
}

// analysisRepo is a repository of n artifacts over n/10 libraries, each
// artifact importing one library.
func analysisRepo(n int) map[string][]byte {
	files := make(map[string][]byte, n+n/10)
	for i := 0; i < n/10; i++ {
		files[fmt.Sprintf("lib/l%04d.cinc", i)] = []byte(fmt.Sprintf("let LIMIT = %d;\n", i))
	}
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("svc/a%04d.cconf", i)] = []byte(fmt.Sprintf(
			"import \"lib/l%04d.cinc\";\nexport {limit: LIMIT, id: %d};\n", i%(n/10), i))
	}
	return files
}

// readCountingFS is a file-system view that counts the reads made through
// it: staged edits over a base, like the pipeline's overlay.
type readCountingFS struct {
	base, overlay map[string][]byte
	reads         int
}

func (fs *readCountingFS) ReadFile(path string) ([]byte, error) {
	fs.reads++
	if data, ok := fs.overlay[path]; ok {
		return data, nil
	}
	if data, ok := fs.base[path]; ok {
		return data, nil
	}
	return nil, fmt.Errorf("no such file %q", path)
}

// analysisReads runs what stage 1 and then the strip gate do for one edit —
// each derives the change's view from the head snapshot — and returns the
// files each of the two read.
func analysisReads(t *testing.T, artifacts int, path, content string) (stage1, gate int) {
	files := analysisRepo(artifacts)
	var roots []string
	for p := range files {
		if strings.HasSuffix(p, ".cconf") {
			roots = append(roots, p)
		}
	}
	head := dataflow.NewIndex(cdl.NewEngine()).Analyze(&readCountingFS{base: files}, roots)
	if len(head.Errors) > 0 {
		t.Fatal(head.Errors)
	}
	overlay := map[string][]byte{path: []byte(content)}
	for _, reads := range []*int{&stage1, &gate} {
		view := &readCountingFS{base: files, overlay: overlay}
		rep := head.Derive(view, []string{path}, nil, nil)
		if len(rep.Errors) > 0 {
			t.Fatal(rep.Errors)
		}
		*reads = view.reads
	}
	return stage1, gate
}

// TestAnalysisReadsFollowConeNotRepoSize is the O(cone) gate for the static
// analysis of a change: stage 1 reads the cone of the edit (the file and its
// transitive importers, to rebuild their summaries), the strip gate after it
// only the edited file (the summaries are memoized by then), at 300
// artifacts and at 3,000 alike.
func TestAnalysisReadsFollowConeNotRepoSize(t *testing.T) {
	for _, edit := range []struct {
		name, path, content string
		cone                int
	}{
		{"one artifact", "svc/a0007.cconf", "import \"lib/l0007.cinc\";\nexport {limit: LIMIT, id: -7};\n", 1},
		{"one library", "lib/l0007.cinc", "let LIMIT = -7;\n", 1 + 10},
	} {
		small1, smallGate := analysisReads(t, 300, edit.path, edit.content)
		large1, largeGate := analysisReads(t, 3000, edit.path, edit.content)
		t.Logf("%s: files read by stage 1 + gate: %d + %d at 300 artifacts, %d + %d at 3,000",
			edit.name, small1, smallGate, large1, largeGate)
		if large1+largeGate > 2*(small1+smallGate) {
			t.Errorf("%s: %d files read at 3,000 artifacts, more than twice the %d at 300",
				edit.name, large1+largeGate, small1+smallGate)
		}
		if large1 != edit.cone || largeGate != 1 {
			t.Errorf("%s: stage 1 read %d files and the gate %d, want the cone (%d) and the edited file (1)",
				edit.name, large1, largeGate, edit.cone)
		}
	}
}

// TestRadiusWorkLinearInFiles: a change that touches every file asks for one
// radius per changed path (the risk advisor's static reach) on top of the
// change's own; together they walk each file once per file it is a
// transitive importer of, not the whole repository once per path.
func TestRadiusWorkLinearInFiles(t *testing.T) {
	files := analysisRepo(3000)
	p := core.New(core.Options{})
	rep := p.Submit(&core.ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "import the repository",
		Sources: files, SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatalf("failed at %s: %v", rep.FailedStage, rep.Err)
	}
	counts := p.Dataflow.Counters().Snapshot()
	queries, visited := counts["radius.query"], counts["radius.visited"]
	t.Logf("%d files: %d radius queries walked %d files", len(files), queries, visited)
	if visited < int64(len(files)) || visited > 4*int64(len(files)) {
		t.Errorf("%d radius queries over %d files walked %d files, want between 1x and 4x the files",
			queries, len(files), visited)
	}
}

// BenchmarkSimnetSend / BenchmarkSimnetTimer: the fleet-scale simulator's
// hot loop (one event heap + pooled events + dense node table, DESIGN.md §4).
// The AllocsPerRun check is the hard regression gate: warm steady state —
// events from the freelist, link/node state in pre-grown maps — must be
// exactly 0 allocs/op, or a 10M-event fleet run starts thrashing the GC.
func simnetBenchNet() *simnet.Network {
	net := simnet.New(simnet.DefaultLatency(), 7)
	place := simnet.Placement{Region: "us", Cluster: "web"}
	h := simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {})
	net.AddNode("a", place, h)
	net.AddNode("b", place, h)
	msg := &struct{}{}
	for i := 0; i < 1000; i++ { // warm: freelist populated, link maps grown
		net.SendSized("a", "b", msg, 1024)
		net.SetTimer("b", time.Millisecond, msg)
		net.Step()
		net.Step()
	}
	return net
}

func BenchmarkSimnetSend(b *testing.B) {
	net := simnetBenchNet()
	msg := &struct{}{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SendSized("a", "b", msg, 1024)
		net.Step()
	}
	b.StopTimer()
	if a := testing.AllocsPerRun(100, func() {
		net.SendSized("a", "b", msg, 1024)
		net.Step()
	}); a != 0 {
		b.Fatalf("warm Send+Step allocates %.1f per op, want 0", a)
	}
}

func BenchmarkSimnetTimer(b *testing.B) {
	net := simnetBenchNet()
	msg := &struct{}{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SetTimer("a", time.Millisecond, msg)
		net.Step()
	}
	b.StopTimer()
	if a := testing.AllocsPerRun(100, func() {
		net.SetTimer("a", time.Millisecond, msg)
		net.Step()
	}); a != 0 {
		b.Fatalf("warm SetTimer+Step allocates %.1f per op, want 0", a)
	}
}

// BenchmarkSimnetQueue holds the event queue at a fixed depth — each op
// schedules one timer up to a second out and fires the earliest — at the
// pending-event depths the benchmark workloads reach: read_storm peaks near
// 1k, author_change and vessel_swarm near 43k, push_wave near 290k; 1M is
// headroom.
func BenchmarkSimnetQueue(b *testing.B) {
	for _, depth := range []struct {
		name string
		n    int
	}{{"1k", 1_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run("depth="+depth.name, func(b *testing.B) {
			net := simnet.New(simnet.DefaultLatency(), 7)
			net.AddNode("a", simnet.Placement{Region: "us", Cluster: "web"},
				simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {}))
			rng := stats.NewRNG(11)
			delays := make([]time.Duration, 4096)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(int(time.Second)))
			}
			msg := &struct{}{}
			for i := 0; i < depth.n; i++ {
				net.SetTimer("a", delays[i%len(delays)], msg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.SetTimer("a", delays[i%len(delays)], msg)
				net.Step()
			}
			b.StopTimer()
			if net.QueueLen() != depth.n {
				b.Fatalf("depth drifted: %d pending, want %d", net.QueueLen(), depth.n)
			}
		})
	}
}

// BenchmarkVesselSwarm: one 16-chunk package swarmed to the fleet the
// benchmark's vessel_swarm workload runs on — NewSwarm(seed, 2000, 8), which
// TestSwarmIsBenchLayout pins as that layout, with 8 MiB chunks and the
// holder budget a SwarmBps uplink carries. Building the swarm and publishing
// the package are untimed; the timed part is the delivery: tracker grants,
// agent fetches and chunk verification over simnet. Run it with
// -cpuprofile to see where a swarm's CPU goes.
func BenchmarkVesselSwarm(b *testing.B) {
	const chunk = 8 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := packagevessel.NewSwarm(42, 2000, 8)
		s.Tracker.SetHolderBudget(packagevessel.HolderBudgetFor(packagevessel.SwarmBps, chunk))
		m, err := s.Registry.Publish(packagevessel.SyntheticPackage("model", 1, 16*chunk, chunk, 42))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if done := s.Deliver(m, s.Tracker.ID(), time.Hour); len(done) != len(s.Agents) {
			b.Fatalf("%d of %d agents completed", len(done), len(s.Agents))
		}
	}
}

// sweepStack stands one observer up with no ensemble behind it, so its
// register-and-prune tick is the only periodic event: n proxies fetch a path
// with a watch, each opening a session, and settle until their keep-alive
// leases are quiet. One proxy then misses a read, which wakes its lease and
// so every session the observer had parked, and all settle again.
func sweepStack(tb testing.TB, n int) (*simnet.Network, *zeus.Observer) {
	tb.Helper()
	net := simnet.New(simnet.DefaultLatency(), 7)
	web := simnet.Placement{Region: "us", Cluster: "web"}
	observer := zeus.NewObserver("obs-1", nil)
	net.AddNode("obs-1", web, observer)
	ctx := simnet.MakeContext(net, "obs-1")
	observer.HandleMessage(&ctx, "obs-1", simnet.Restarted{}) // arms the tick chain, as after a restart
	const path = "/configs/sweep"
	var first *proxy.Proxy
	for i := 0; i < n; i++ {
		px := proxy.New(net, simnet.NodeID(fmt.Sprintf("proxy-%04d", i)), web, []simnet.NodeID{"obs-1"}, nil)
		px.Want(path)
		if first == nil {
			first = px
		}
	}
	net.RunFor(30 * time.Second)
	if ctx.LeaseWakes() != 0 {
		tb.Fatalf("a lease woke before the miss")
	}
	first.Read("/configs/sweep-miss")
	net.RunFor(30 * time.Second)
	if ctx.LeaseWakes() == 0 {
		tb.Fatalf("the missed read woke no lease")
	}
	if got := observer.WatchCount(path); got != n {
		tb.Fatalf("%d of %d proxies watch %s", got, n, path)
	}
	return net, observer
}

// observerTick is the observer's register-and-prune interval.
const observerTick = 2 * time.Second

// BenchmarkObserverSweep: one quiet observer tick — the watch-session sweep
// over every proxy's session — at 150 and 3,000 sessions. Counts, not
// clocks: by the time the stack is settled every session has been parked
// (its proxy's lease stands in for its pings), so a quiet tick looks at no
// session, is exactly one event and allocates nothing, whatever the
// sessions; ns per tick is reported for the record.
func BenchmarkObserverSweep(b *testing.B) {
	for _, n := range []int{150, 3000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			net, observer := sweepStack(b, n)
			events, looked := net.Events, observer.Looked
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.RunFor(observerTick)
			}
			b.StopTimer()
			if per := float64(net.Events-events) / float64(b.N); per != 1 {
				b.Fatalf("a quiet tick at %d sessions runs %.2f events, want 1", n, per)
			}
			if got := observer.Looked - looked; got != 0 {
				b.Fatalf("%d quiet ticks at %d sessions looked at %d sessions, want none: all are parked", b.N, n, got)
			}
			if a := testing.AllocsPerRun(20, func() { net.RunFor(observerTick) }); a != 0 {
				b.Fatalf("a quiet tick at %d sessions allocates %.1f, want 0", n, a)
			}
		})
	}
}

// BenchmarkCatchUp: the leader's answer to an observer registering four
// updates behind, on a tree of 6,400 paths of which 1,000 were rewritten.
// A catch-up costs what the replica is missing, not the tree's size.
func BenchmarkCatchUp(b *testing.B) {
	const paths, rewrites = 6400, 1000
	tree := zeus.NewDataTree()
	for i := 0; i < paths+rewrites; i++ {
		path := fmt.Sprintf("/configs/catchup/%04d", i%paths)
		tree.Apply(zeus.WriteOp{Zxid: int64(i + 1), Path: path, Data: []byte(fmt.Sprintf(`{"v":%d}`, i)),
			Version: tree.NextVersion(path)})
	}
	after := tree.LastZxid() - 4
	if got := len(tree.ChangedAfter(after)); got != 4 {
		b.Fatalf("a replica 4 updates behind is owed %d", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.ChangedAfter(after)
	}
}

// sampleStack is a fleet of four clusters of perCluster servers on which every
// server subscribes to the given number of configs, the first carrying a
// latency fault marker when fault is set. It is settled and sampled once, since
// each proxy's first read of a path emits its first-read event. write commits
// a config and lets it land on every server.
func sampleStack(tb testing.TB, perCluster, paths int, fault bool) (f *cluster.Fleet, write func(path, data string)) {
	tb.Helper()
	f = cluster.New(cluster.SmallConfig(perCluster, 42))
	f.Net.RunFor(10 * time.Second)
	writer := zeus.NewClient("sample-writer", f.Ensemble.Members)
	f.Net.AddNode("sample-writer", simnet.Placement{Region: "us-west", Cluster: "ctrl"}, writer)
	commit := func(path, data string) {
		f.Net.After(0, func() {
			ctx := simnet.MakeContext(f.Net, "sample-writer")
			writer.Write(&ctx, path, []byte(data), nil)
		})
	}
	for i := 0; i < paths; i++ {
		data := fmt.Sprintf(`{"v":%d}`, i)
		if i == 0 && fault {
			data = `{"_fault":{"type":"latency","intensity":0.5}}`
		}
		commit(samplePath(i), data)
		f.SubscribeAll(samplePath(i))
	}
	f.Net.RunFor(30 * time.Second)
	for _, id := range f.Servers() {
		f.Sample(id)
	}
	return f, func(path, data string) {
		commit(path, data)
		f.Net.RunFor(30 * time.Second)
	}
}

func samplePath(i int) string { return fmt.Sprintf("/configs/sample/%02d", i) }

// BenchmarkFleetSample: the canary's health sample of one server on a
// 20-server fleet watching 24 paths, as the author_change workload's does, one
// of them carrying a latency fault. The sample is the server's maintained view
// (cluster.DefaultAppModel): a read only for a view a change marked stale, here
// none, and the faulted view multiplied in.
func BenchmarkFleetSample(b *testing.B) {
	f, _ := sampleStack(b, 5, 24, true)
	servers := f.Servers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Sample(servers[i%len(servers)])
	}
}

// BenchmarkCanaryRun: one canary.DefaultSpec run — 20 test servers, then a
// 300-server phase, each phase sampling all 600 servers — on the author_change
// fleet shape: 4 × 150 servers subscribed to 24 paths. Between runs, outside
// the timer, the canaried content is committed and lands everywhere, so each
// run samples a fleet whose view of one path just moved, as in author_change.
// `go test -bench CanaryRun -cpuprofile cpu.out` attributes a canary's CPU
// (the share of cluster.Fleet.Sample in it, for one).
func BenchmarkCanaryRun(b *testing.B) {
	f, write := sampleStack(b, 150, 24, false)
	runner := canary.NewRunner(f.Net, f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, data := samplePath(1+i%23), fmt.Sprintf(`{"v":%d,"run":%d}`, i%23, i)
		done := false
		runner.Run(canary.DefaultSpec(path, len(f.AllServers())/2), []byte(data), func(rep canary.Report) {
			if !rep.Passed {
				b.Fatalf("canary of %s failed: %+v", path, rep.Phases)
			}
			done = true
		})
		for !done {
			f.Net.RunFor(5 * time.Second)
		}
		b.StopTimer()
		write(path, data)
		b.StartTimer()
	}
}

// TestSampleAllocatesOnlyItsResult: a health sample allocates its result
// and nothing per watched path — sampling a server that watches 24 paths
// allocates what sampling one that watches none does.
func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	bare, _ := sampleStack(t, 5, 0, true)
	watching, _ := sampleStack(t, 5, 24, true)
	id := watching.Servers()[0]
	if s := watching.Sample(id); s[health.MetricLatencyMs] <= bare.Sample(id)[health.MetricLatencyMs] {
		t.Fatalf("the latency fault did not show: %v", s)
	}
	result := testing.AllocsPerRun(100, func() { bare.Sample(id) })
	got := testing.AllocsPerRun(100, func() { watching.Sample(id) })
	t.Logf("a sample allocates %.1f with 24 watched paths, %.1f with none", got, result)
	if got != result {
		t.Errorf("a sample with 24 watched paths allocates %.1f, want %.1f (its result only)", got, result)
	}
}
