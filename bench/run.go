package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"configerator/internal/stats"
)

// config is one run's inputs.
type config struct {
	workload string
	seed     uint64
	// seconds is the nominal length of the timed region. Work is counted,
	// not clocked: each workload does its ten-second op count times
	// seconds/10, so the same seed always does the same work and simulated
	// clocks and counters repeat exactly.
	seconds float64
	trace   bool
	// tiny selects the self-test sizes (go test ./bench): same code paths,
	// a few hundred ops.
	tiny   bool
	outDir string
}

// ops scales a ten-second op count to the run's nominal length.
func (c config) ops(perTenSeconds int) int {
	n := int(math.Round(float64(perTenSeconds) * c.seconds / 10))
	if n < 1 {
		n = 1
	}
	return n
}

// outcome is what a workload measured.
type outcome struct {
	ops    int           // ops completed and correct
	failed int           // ops failed or refused; never counted in ops_per_s
	wall   time.Duration // the timed region
	// opMs holds wall time per op over the whole timed region: one sample
	// per op where an op is a call, one per batch (its wall time divided by
	// its ops) where ops are too short to time or complete inside the
	// simulator. opWeight, when set, is each batch's op count, so percentiles
	// are over ops, not batches.
	opMs     []float64
	opWeight []float64
	// blocks are the timed region's equal-work blocks, where it divides into
	// such. The wall metrics are then the best any one block saw (the fastest
	// block's rate, the lowest block p50 and p90), because interference on a
	// shared host only ever adds time. Without blocks they are taken over the
	// whole region.
	blocks []block
	simS   []float64 // simulated latency samples
	setupS []float64 // wall time of each set-up
	// checkErr is the correctness check's verdict on the outputs.
	checkErr error
	// fingerprint digests state that must repeat exactly per seed.
	fingerprint string
	notes       []string
	// perLayer and rootSpan are filled by traced runs only.
	perLayer map[string]float64
	rootSpan string
}

// block is one equal-work share of a timed region: its op rate and its own
// wall time per op samples, as outcome.opMs and opWeight hold the region's.
type block struct {
	opsPerS  float64
	opMs     []float64
	opWeight []float64
}

// workload is one named set of inputs. run measures end to end with tracing
// off; traced repeats it with spans around each call into a layer.
type workload struct {
	name   string
	run    func(cfg config) outcome
	traced func(cfg config, tr *tracer) outcome
}

var workloads = []workload{
	{"author_change", authorChange, authorChangeTraced},
	{"read_storm", readStorm, readStormTraced},
	{"gate_check", gateCheck, gateCheckTraced},
	{"push_wave", pushWave, pushWaveTraced},
	{"commit_burst", commitBurst, commitBurstTraced},
	{"vessel_swarm", vesselSwarm, vesselSwarmTraced},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Set-up is repeated while the builds so far took under setupBudget, at most
// maxSetups times.
const (
	setupBudget = time.Second
	maxSetups   = 25
)

// repeatSetup builds a workload's rig repeatedly and returns the last rig
// with every build's wall time: setup_s is the fastest, which steadies the
// millisecond-scale set-ups (25 builds) without repeating the five-second one.
// Their times have a hard floor and a tail above it (8.0 to 15 ms for one rig
// in one process), so the median moved by 30 % between sets of runs of the
// same code and the floor by 2 %.
// Earlier rigs are dropped and collected before the next build, so the timed
// region starts from one rig's heap.
func repeatSetup[T any](build func() T) (rig T, setupS []float64) {
	var spent time.Duration
	for i := 0; i < maxSetups && (i == 0 || spent < setupBudget); i++ {
		var zero T
		rig = zero
		runtime.GC()
		start := time.Now()
		rig = build()
		d := time.Since(start)
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	return rig, setupS
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.NewCDF(xs...).Quantile(q)
}

// weightedQuantile is the smallest value at or below which a share q of the
// total weight lies. Nil weights mean equal weights, interpolated as quantile
// does.
func weightedQuantile(xs, weights []float64, q float64) float64 {
	if weights == nil {
		return quantile(xs, q)
	}
	order := make([]int, len(xs))
	total := 0.0
	for i := range order {
		order[i] = i
		total += weights[i]
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	cum := 0.0
	for _, i := range order {
		if cum += weights[i]; cum >= q*total {
			return xs[i]
		}
	}
	return 0
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// opsPerS is the fastest equal-work block's rate, or ops over the timed
// region where there are no blocks.
func (o outcome) opsPerS() float64 {
	if len(o.blocks) > 0 {
		return quantile(o.blockRates(), 1)
	}
	if o.wall <= 0 {
		return 0
	}
	return float64(o.ops) / o.wall.Seconds()
}

func (o outcome) blockRates() []float64 {
	rates := make([]float64, len(o.blocks))
	for i, b := range o.blocks {
		rates[i] = b.opsPerS
	}
	return rates
}

// opWallMs is the q-quantile of wall time per op: the lowest of the blocks'
// own quantiles, or the whole region's where there are no blocks.
func (o outcome) opWallMs(q float64) float64 {
	if len(o.blocks) == 0 {
		return weightedQuantile(o.opMs, o.opWeight, q)
	}
	best := math.Inf(1)
	for _, b := range o.blocks {
		best = math.Min(best, weightedQuantile(b.opMs, b.opWeight, q))
	}
	return best
}

// endToEnd turns an outcome into the seven end-to-end metrics.
func (o outcome) endToEnd() map[string]float64 {
	return map[string]float64{
		"ops_per_s":         o.opsPerS(),
		"op_wall_ms_p50":    o.opWallMs(0.50),
		"op_wall_ms_p90":    o.opWallMs(0.90),
		"sim_latency_s_p50": quantile(o.simS, 0.50),
		"sim_latency_s_p99": quantile(o.simS, 0.99),
		"setup_s":           quantile(o.setupS, 0),
		"peak_rss_mb":       peakRSSMB(),
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload in this process: every metric by name with its
// unit, the correctness check's verdict, then the result line. A failed
// check or a failed op is an error.
func runOne(w io.Writer, spec *benchSpec, cfg config) error {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", wl.name, cfg.seed, cfg.seconds, cfg.trace)

	var o outcome
	var values map[string]float64
	var specs []metricSpec
	if cfg.trace {
		tr := newTracer()
		o = wl.traced(cfg, tr)
		values, specs = o.perLayer, spec.PerLayer
		layers, rootTotal := tr.layers(o.rootSpan)
		printLayers(w, o.rootSpan, layers, rootTotal)
		path, err := writeTrace(cfg.outDir, traceFile{
			Workload: wl.name, Stamp: newStamp(cfg), Root: o.rootSpan,
			Layers: layers, PerLayer: values, Spans: tr.spans,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %d spans written to %s\n", len(tr.spans), path)
	} else {
		o = wl.run(cfg)
		values, specs = o.endToEnd(), spec.EndToEnd
	}

	fmt.Fprintf(w, "  ops %d  failed_ops %d  timed region %.3f s  fingerprint %s\n",
		o.ops, o.failed, o.wall.Seconds(), o.fingerprint)
	if rates := o.blockRates(); len(rates) > 0 {
		fmt.Fprintf(w, "  op/s by equal-work block: fastest %.6g, median %.6g, slowest %.6g over %d blocks\n",
			quantile(rates, 1), quantile(rates, 0.5), quantile(rates, 0), len(rates))
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	line := resultLine{
		Correct:   o.checkErr == nil,
		Attempted: o.ops + o.failed,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s: end-to-end metric %s not measured", wl.name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", wl.name, m.Name, v)
		}
		if ok { // a traced run prints the layers it measured; the rest are 0 in the result line
			fmt.Fprintf(w, "  %-44s %16.6g %s\n", m.Name, v, m.Unit)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := line.Metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s is not in BENCHMARK.json", wl.name, name)
		}
	}
	if o.checkErr != nil {
		return fmt.Errorf("%s: correctness check failed: %w", wl.name, o.checkErr)
	}
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", wl.name, o.failed, o.ops+o.failed)
	}
	fmt.Fprintln(w, "  check ok")
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printLayers prints each layer's self time and its share of the root span.
func printLayers(w io.Writer, root string, layers []layerStat, rootTotal time.Duration) {
	tb := stats.NewTable(fmt.Sprintf("self time by layer under %s (%.3f s)", root, rootTotal.Seconds()),
		"layer", "calls", "self ms", "share")
	for _, l := range layers {
		tb.AddRawRow(l.Layer, l.Calls, fmt.Sprintf("%.3f", float64(l.Self)/1e6), fmt.Sprintf("%.1f%%", 100*l.Share))
	}
	fmt.Fprint(w, tb.String())
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
