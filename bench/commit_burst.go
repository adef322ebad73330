package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"configerator/internal/landingstrip"
	"configerator/internal/stats"
	"configerator/internal/vclock"
	"configerator/internal/vcs"
)

// commit_burst: the mutation plane (Figure 13). One repository of real
// files; single-file diffs are cloned at head and landed through the landing
// strip, each arriving when the previous one finished. Nothing is compiled
// or distributed: vcs and landingstrip do all the work. One diff in twenty
// is deliberately based on a stale head and touches a file changed since,
// which the strip must refuse. Memory is the point as much as speed: every
// commit stores a tree. It is a closed loop with one client.

type burstSizes struct {
	files               int
	commitsPerTenSecond int
}

func burstSizesFor(cfg config) burstSizes {
	if cfg.tiny {
		return burstSizes{files: 200, commitsPerTenSecond: 100}
	}
	return burstSizes{files: 8000, commitsPerTenSecond: 1400}
}

// burstOp is one generated diff.
type burstOp struct {
	path    string
	content []byte
	// stale diffs are staged on a clone taken before the previous op, and
	// touch the file the previous op changed.
	stale bool
}

func burstFile(i int) string { return fmt.Sprintf("cfg/%02d/file-%05d.json", i%64, i) }

func burstContent(i, rev int, rng *stats.RNG) []byte {
	return []byte(fmt.Sprintf(`{"file":%d,"rev":%d,"token":"%016x","enabled":true,"limits":{"mem_mb":512,"cpu_pct":80}}`+"\n",
		i, rev, rng.Uint64()))
}

// burstPlan generates n diffs from the seed: in every block of twenty, one
// at a seeded position is stale, up to two add a new file and the rest edit an
// existing one.
func burstPlan(sz burstSizes, seed uint64, n int) []burstOp {
	rng := stats.NewRNG(seed)
	plan := make([]burstOp, 0, n)
	files := sz.files
	var stalePos, add1, add2 int
	for i := 0; i < n; i++ {
		if i%20 == 0 {
			stalePos, add1, add2 = 1+rng.Intn(19), rng.Intn(20), rng.Intn(20)
		}
		var op burstOp
		switch pos := i % 20; {
		case pos == stalePos: // never the block's first, so op i-1 exists and landed
			op = burstOp{path: plan[i-1].path, stale: true}
			op.content = burstContent(-1, i+1, rng)
		case pos == add1 || pos == add2:
			op = burstOp{path: burstFile(files), content: burstContent(files, i+1, rng)}
			files++
		default:
			f := rng.Intn(sz.files)
			op = burstOp{path: burstFile(f), content: burstContent(f, i+1, rng)}
		}
		plan = append(plan, op)
	}
	return plan
}

// burstRig is a loaded repository behind a strip.
type burstRig struct {
	sz    burstSizes
	repo  *vcs.Repository
	strip *landingstrip.Strip
	now   time.Time // arrival time of the next diff
}

func newBurstRig(cfg config, name string) *burstRig {
	sz := burstSizesFor(cfg)
	r := &burstRig{sz: sz, repo: vcs.NewRepository(name), now: vclock.Epoch}
	rng := stats.NewRNG(cfg.seed ^ 0xf11e5)
	changes := make([]vcs.Change, sz.files)
	for i := range changes {
		changes[i] = vcs.Change{Path: burstFile(i), Content: burstContent(i, 0, rng)}
	}
	r.repo.CommitChanges("import", "import repository", r.now, changes...)
	r.strip = landingstrip.New(r.repo, vcs.DefaultCostModel())
	return r
}

// landed is one diff the strip accepted, kept for the traced run's twin.
type landed struct {
	diff *vcs.Diff
	at   time.Time
}

// run lands the plan. An op is one landed commit; a stale diff refused with
// vcs.ErrConflict is the correct outcome and counts as neither op nor
// failure; anything else is a failed op.
func (r *burstRig) run(plan []burstOp, tr *tracer) (o outcome, commits []landed) {
	start := time.Now()
	refused := 0
	var behind *vcs.WorkingCopy // clone taken before the previous op
	for i, op := range plan {
		t0 := time.Now()
		root := tr.begin("bench.commit_burst", i)
		id := tr.begin("vcs.Diff", i)
		wc := r.repo.Clone("author")
		if op.stale {
			wc = behind
		}
		behind = r.repo.Clone("author")
		wc.Write(op.path, op.content)
		diff := wc.Diff(fmt.Sprintf("commit %d", i))
		tr.end(id)
		id = tr.begin("landingstrip.Submit", i)
		res := r.strip.Submit(diff, r.now)
		tr.end(id)
		tr.end(root)
		d := time.Since(t0)
		r.now = res.Finish
		switch {
		case op.stale && errors.Is(res.Err, vcs.ErrConflict):
			refused++
		case !op.stale && res.Err == nil:
			o.ops++
			o.opMs = append(o.opMs, float64(d)/1e6)
			o.simS = append(o.simS, res.Latency().Seconds())
			if tr != nil {
				commits = append(commits, landed{diff, res.Finish})
			}
		default:
			o.failed++
			if o.checkErr == nil {
				o.checkErr = fmt.Errorf("commit %d (stale=%v): %v", i, op.stale, res.Err)
			}
		}
	}
	o.wall = time.Since(start)
	if o.checkErr == nil {
		o.checkErr = r.check(plan, o.ops, refused)
	}
	o.fingerprint = fmt.Sprintf("head=%s refused=%d", r.repo.Head(), refused)
	o.notes = append(o.notes, fmt.Sprintf("%d stale diffs refused with vcs.ErrConflict (correct, counted as neither op nor failure)", refused))
	return o, commits
}

// check compares the repository with the plan: the commit count, the strip's
// own tallies, and the content of every file the plan wrote.
func (r *burstRig) check(plan []burstOp, landedOps, refused int) error {
	if got := r.repo.CommitCount(); got != landedOps+1 {
		return fmt.Errorf("CommitCount %d, want %d landed + the import", got, landedOps)
	}
	if r.strip.Landed != landedOps || r.strip.Rejected != refused {
		return fmt.Errorf("strip counted %d landed, %d rejected; want %d, %d", r.strip.Landed, r.strip.Rejected, landedOps, refused)
	}
	last := map[string][]byte{}
	for _, op := range plan {
		if !op.stale {
			last[op.path] = op.content
		}
	}
	for path, want := range last {
		got, err := r.repo.ReadFile(path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s does not hold the last content landed", path)
		}
	}
	return nil
}

func commitBurst(cfg config) outcome {
	rig, setupS := repeatSetup(func() *burstRig { return newBurstRig(cfg, "configerator") })
	plan := burstPlan(rig.sz, cfg.seed, cfg.ops(rig.sz.commitsPerTenSecond))
	runtime.GC()
	o, _ := rig.run(plan, nil)
	o.setupS = setupS
	return o
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// commitBurstTraced lands the burst through the strip with spans, then lands
// the accepted diffs again with Repository.Land on a twin repository built
// from the same seed (same commit times, so the same hashes): the twin's
// spans are vcs alone, and the strip's own cost is the difference.
func commitBurstTraced(cfg config, tr *tracer) outcome {
	rig := newBurstRig(cfg, "configerator")
	plan := burstPlan(rig.sz, cfg.seed, cfg.ops(rig.sz.commitsPerTenSecond))
	heap0 := liveHeap()
	o, commits := rig.run(plan, tr)
	heapPerCommit := float64(liveHeap()-heap0) / float64(o.ops)
	o.rootSpan = "bench.commit_burst"
	head, rejected := rig.repo.Head(), rig.strip.Rejected
	rig = nil // the twin starts from the heap the strip's repository started from

	twin := newBurstRig(cfg, "configerator")
	for i, c := range commits {
		id := tr.begin("vcs.Land", i)
		_, err := twin.repo.Land(c.diff, c.at)
		tr.end(id)
		if err != nil && o.checkErr == nil {
			o.checkErr = fmt.Errorf("twin repository: %w", err)
		}
	}
	if twin.repo.Head() != head && o.checkErr == nil {
		o.checkErr = fmt.Errorf("twin repository ended on %s, the strip's on %s", twin.repo.Head(), head)
	}

	by := tr.byName()
	ops := float64(o.ops)
	landMs := float64(by["vcs.Land"].total) / 1e6 / ops
	o.perLayer = map[string]float64{
		"landingstrip.submit_ms":        float64(by["landingstrip.Submit"].total)/1e6/ops - landMs, // refused diffs cost the strip next to nothing
		"landingstrip.sim_work_s_p50":   quantile(o.simS, 0.5),
		"landingstrip.conflict_rejects": float64(rejected),
		"vcs.land_ms":                   landMs,
		"vcs.diff_ms":                   float64(by["vcs.Diff"].total) / 1e6 / float64(len(plan)),
		"vcs.heap_bytes_per_commit":     heapPerCommit,
		"bench.traced_ops_per_s":        o.opsPerS(),
	}
	return o
}
