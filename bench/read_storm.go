package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"configerator/internal/confclient"
	"configerator/internal/obs"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// read_storm: the read side only. One server (3-member ensemble, one
// observer, one proxy, one client library); one reader goroutine calls
// Client.Get and Value.Int over warm paths as fast as it can, while the
// simulator goroutine keeps committing to the same paths, so every read
// races live snapshot swaps. Nothing is compiled and no commit cost is
// paid. It is a closed loop with one client.

type readSizes struct {
	paths            int
	getsPerTenSecond int // a run is readTrials trials of a 1/readTrials share each
	readsPerRound    int // the simulator commits four paths per this many reads
}

// readTrials fixed-count trials per run; each is one equal-work block of
// about 90 ms. Many short trials rather than a few long ones: on a shared
// host the chance that some trial runs undisturbed is what keeps the fastest
// trial's numbers steady.
const readTrials = 112

// trialBatches timed batches per trial: the trial's op_wall_ms samples, about
// five milliseconds each.
const trialBatches = 16

func readSizesFor(cfg config) readSizes {
	if cfg.tiny {
		return readSizes{paths: 16, getsPerTenSecond: 140_000, readsPerRound: 2_000}
	}
	return readSizes{paths: 256, getsPerTenSecond: 91_000_000, readsPerRound: 13_000}
}

// serverStack is one server's view of the distribution plane, with a
// writer client standing in for the tailer.
type serverStack struct {
	net    *simnet.Network
	writer *zeus.Client
	px     *proxy.Proxy
	cl     *confclient.Client
}

func newServerStack(seed uint64, reg *obs.Registry) *serverStack {
	net := simnet.New(simnet.DefaultLatency(), seed)
	ens := zeus.StartEnsemble(net, 3, []simnet.Placement{
		{Region: "us", Cluster: "zk1"}, {Region: "us", Cluster: "zk2"}, {Region: "eu", Cluster: "zk3"},
	})
	ens.SetObs(reg)
	web := simnet.Placement{Region: "us", Cluster: "web"}
	ens.AddObserver("obs-1", web)
	s := &serverStack{net: net, writer: zeus.NewClient("writer", ens.Members)}
	net.AddNode("writer", simnet.Placement{Region: "us", Cluster: "ctrl"}, s.writer)
	net.RunFor(10 * time.Second) // elect the leader
	s.px = proxy.New(net, "proxy-1", web, []simnet.NodeID{"obs-1"}, nil)
	s.px.Obs = reg
	s.cl = confclient.New(s.px)
	s.cl.SetObs(reg)
	return s
}

// write issues a Zeus write at the current simulated instant.
func (s *serverStack) write(path string, data []byte, done func(zeus.WriteResult)) {
	s.net.After(0, func() {
		ctx := simnet.MakeContext(s.net, "writer")
		s.writer.Write(&ctx, path, data, done)
	})
}

func readPayload(p, rev int) []byte {
	return []byte(fmt.Sprintf(
		`{"rev":%d,"owner":"svc-%04d","enabled":true,"weight":0.25,"hosts":["h1","h2","h3","h4"],"limits":{"mem_mb":512,"cpu_pct":80}}`,
		rev, p))
}

// readRig is a warm server and the churn state.
type readRig struct {
	sz    readSizes
	stack *serverStack
	paths []string
	// revs[p] is the revision last committed to path p; issued[p] is when.
	revs   []int
	issued []time.Time
	next   int // next path to commit, round-robin from a seeded offset
	rounds int
	simS   []float64
	// progress counts reads done under churn. The simulator commits a round
	// per readsPerRound of them, so a run's simulation is the same whatever
	// the wall clock does.
	progress atomic.Int64
	tr       *tracer // simulator goroutine's spans (traced run)
}

func newReadRig(cfg config, reg *obs.Registry) *readRig {
	sz := readSizesFor(cfg)
	r := &readRig{sz: sz, stack: newServerStack(cfg.seed, reg),
		revs: make([]int, sz.paths), issued: make([]time.Time, sz.paths)}
	r.next = int(cfg.seed % uint64(sz.paths))
	for p := 0; p < sz.paths; p++ {
		p := p
		r.paths = append(r.paths, fmt.Sprintf("/read/cfg-%04d.json", p))
		r.revs[p] = 1
		r.stack.write(r.paths[p], readPayload(p, 1), nil)
		r.stack.px.Subscribe(r.paths[p], func(proxy.Entry) {
			if !r.issued[p].IsZero() {
				r.simS = append(r.simS, r.stack.net.Now().Sub(r.issued[p]).Seconds())
			}
		})
	}
	r.stack.net.RunFor(15 * time.Second) // commit, fetch with a watch, materialise
	ctx := context.Background()
	for _, path := range r.paths {
		if v, err := r.stack.cl.Get(ctx, path); err == nil {
			v.Int("rev", -1) // decode every memo before timing
		}
	}
	return r
}

// churnRound commits four paths and runs 250 simulated ms.
func (r *readRig) churnRound() {
	for w := 0; w < 4; w++ {
		p := r.next
		r.next = (r.next + 1) % len(r.paths)
		r.revs[p]++
		r.issued[p] = r.stack.net.Now()
		r.stack.write(r.paths[p], readPayload(p, r.revs[p]), nil)
	}
	r.tr.in("simnet.RunFor", r.rounds, func() { r.stack.net.RunFor(250 * time.Millisecond) })
	r.rounds++
}

// churn runs on the simulator goroutine: one round per readsPerRound reads
// the reader has done, until stop is set and the rounds have caught up.
func (r *readRig) churn(stop *atomic.Bool) {
	for {
		switch want := int(r.progress.Load()) / r.sz.readsPerRound; {
		case r.rounds < want:
			r.churnRound()
		case stop.Load():
			r.stack.net.RunFor(2 * time.Second) // drain in-flight pushes
			return
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// readLoop is one kind of read, run in trials.
type readLoop struct {
	name string
	// read does one op on path p and returns the revision it saw, or -1.
	read func(p int) int64
}

func (r *readRig) getLoop() readLoop {
	ctx, cl := context.Background(), r.stack.cl
	return readLoop{"confclient.Get", func(p int) int64 {
		v, err := cl.Get(ctx, r.paths[p])
		if err != nil {
			return -1
		}
		return v.Int("rev", -1)
	}}
}

// readChunk is how many reads pass between progress reports.
const readChunk = 4096

// trials runs n fixed-count trials of the loop on the calling goroutine,
// adds each to o as a block and returns each trial's ns per op. A read that
// fails, or returns a revision older than one already seen of that path, is
// a failed op.
func (r *readRig) trials(o *outcome, tr *tracer, loop readLoop, n, count int) (nsPerOp []float64) {
	mask := len(r.paths) - 1 // path counts are powers of two
	last := make([]int64, len(r.paths))
	per := count / trialBatches
	for t := 0; t < n; t++ {
		id := tr.begin(loop.name, t)
		batchMs := make([]float64, 0, trialBatches)
		start := time.Now()
		for b := 0; b < trialBatches; b++ {
			bad := 0
			t0 := time.Now()
			for done := 0; done < per; done += readChunk {
				chunk := readChunk
				if per-done < chunk {
					chunk = per - done
				}
				for i := done; i < done+chunk; i++ {
					p := i & mask
					rev := loop.read(p)
					if rev < last[p] {
						bad++
					}
					last[p] = rev
				}
				r.progress.Add(int64(chunk))
			}
			batchMs = append(batchMs, float64(time.Since(t0))/1e6/float64(per))
			o.failed += bad
			o.ops += per - bad
		}
		d := time.Since(start)
		tr.end(id)
		ns := float64(d) / float64(per*trialBatches)
		o.blocks = append(o.blocks, block{opsPerS: 1e9 / ns, opMs: batchMs})
		nsPerOp = append(nsPerOp, ns)
	}
	return nsPerOp
}

// trialNote prints the fastest trial with the median and range beside it.
func trialNote(what string, nsPerOp []float64) string {
	return fmt.Sprintf("%s: fastest %.2f ns/op, median %.2f, slowest %.2f over %d trials",
		what, quantile(nsPerOp, 0), quantile(nsPerOp, 0.5), quantile(nsPerOp, 1), len(nsPerOp))
}

// underChurn runs fn on the calling goroutine while the simulator goroutine
// churns, and returns when both are done.
func (r *readRig) underChurn(fn func()) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.churn(&stop)
	}()
	fn()
	stop.Store(true)
	wg.Wait()
}

// check reads every path once more: after the drain each must serve the
// last committed revision.
func (r *readRig) check(o *outcome, loop readLoop) {
	if o.failed > 0 {
		o.checkErr = fmt.Errorf("%d reads failed or went back in time", o.failed)
		return
	}
	for p := range r.paths {
		if got := loop.read(p); got != int64(r.revs[p]) {
			o.checkErr = fmt.Errorf("%s serves rev %d, last committed %d", r.paths[p], got, r.revs[p])
			return
		}
	}
}

func readStorm(cfg config) outcome {
	rig, setupS := repeatSetup(func() *readRig { return newReadRig(cfg, nil) })
	o := outcome{setupS: setupS}
	count := cfg.ops(rig.sz.getsPerTenSecond) / readTrials
	loop := rig.getLoop()
	start := time.Now()
	rig.underChurn(func() {
		rig.trials(&o, nil, loop, readTrials, count)
		o.wall = time.Since(start)
	})
	o.simS = rig.simS
	o.notes = append(o.notes, fmt.Sprintf("%d churn rounds (4 commits each) while reading", rig.rounds))
	rig.check(&o, loop)
	o.fingerprint = fmt.Sprintf("events=%d sim=%s", rig.stack.net.Events, digest(o.simS))
	return o
}

// readStormTraced times the client library and the proxy under it
// separately: Get trials and direct Proxy.Read trials under churn, then the
// same Read trials with the simulator idle. The difference between the two
// Read numbers is what the writer's copy-on-write swaps cost the reader.
func readStormTraced(cfg config, tr *tracer) outcome {
	reg := obs.New()
	rig := newReadRig(cfg, reg)
	rig.tr = newTracer()
	o := outcome{rootSpan: "bench.read_storm"}
	count := cfg.ops(rig.sz.getsPerTenSecond) / readTrials
	get := rig.getLoop()
	px := rig.stack.px
	read := readLoop{"proxy.Read", func(p int) int64 {
		if res := px.Read(rig.paths[p]); res.OK {
			return res.Version
		}
		return -1
	}}
	quiet := read
	quiet.name = "proxy.ReadQuiet"

	hits0, memo0 := rig.stack.cl.Hits(), rig.stack.cl.MemoHits()
	decodes0 := reg.Counters().Get("confclient.parse.decode")
	var getNs, readNs, quietNs []float64
	var side outcome // the Read trials' ops are not the workload's
	root := tr.begin(o.rootSpan, 0)
	start := time.Now()
	rig.underChurn(func() {
		getNs = rig.trials(&o, tr, get, readTrials, count)
		o.wall = time.Since(start)
		readNs = rig.trials(&side, tr, read, readTrials/4, count)
	})
	quietNs = rig.trials(&side, tr, quiet, readTrials/4, count)
	tr.end(root)
	gets := float64(rig.stack.cl.Hits() - hits0)
	memoHits := rig.stack.cl.MemoHits() - memo0
	decodes := reg.Counters().Get("confclient.parse.decode") - decodes0
	o.failed += side.failed
	rig.check(&o, get)

	ctx := context.Background()
	o.perLayer = map[string]float64{
		"proxy.read_ns":       quantile(readNs, 0),
		"proxy.read_ns_quiet": quantile(quietNs, 0),
		"proxy.allocs_per_read": testing.AllocsPerRun(1000, func() {
			px.Read(rig.paths[0])
		}),
		"confclient.get_ns": quantile(getNs, 0),
		"confclient.allocs_per_get": testing.AllocsPerRun(1000, func() {
			if v, err := rig.stack.cl.Get(ctx, rig.paths[1]); err == nil {
				v.Int("rev", -1)
			}
		}),
		"confclient.decodes_per_get": float64(decodes) / gets,
		"confclient.memo_hit_ratio":  float64(memoHits) / gets,
		"simnet.events":              float64(rig.stack.net.Events),
		"bench.traced_ops_per_s":     o.opsPerS(),
	}
	// The simulator goroutine's spans join the file as roots of their own:
	// they ran beside the reader, not under it.
	base, shift := len(tr.spans), int64(rig.tr.t0.Sub(tr.t0))
	for _, s := range rig.tr.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start, s.End = s.Start+shift, s.End+shift
		tr.spans = append(tr.spans, s)
	}
	o.notes = append(o.notes, trialNote("Get+Int under churn", getNs),
		trialNote("Proxy.Read under churn", readNs), trialNote("Proxy.Read, simulator idle", quietNs))
	o.fingerprint = fmt.Sprintf("events=%d decodes=%d", rig.stack.net.Events, decodes)
	return o
}
