package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"configerator/internal/health"
	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// traceJSON is tr's JSON form ("null" for no trace).
func traceJSON(t *testing.T, tr *obs.Trace) string {
	t.Helper()
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// polledAppModel is the reference the maintained app model must equal: every
// sample reads every watched path through the proxy, and a load fault reads its
// path on every server. It shares the fault rule (FaultMarker.effect) with
// DefaultAppModel, so only the bookkeeping differs.
func polledAppModel(f *Fleet, s *Server) health.Sample {
	sample := baseSample()
	for _, w := range f.watched {
		path := w.path
		e := s.Proxy.Read(path)
		if !e.OK || !e.Exists {
			continue
		}
		fault, ok := faultIn(e.Data)
		if !ok {
			continue
		}
		frac := 0.0
		if fault.Type == "load" {
			n := 0
			for _, o := range f.servers {
				if r := o.Proxy.Read(path); r.OK && r.Exists && bytes.Equal(r.Data, e.Data) {
					n++
				}
			}
			frac = float64(n) / float64(len(f.servers))
		}
		fault.effect(sample, frac)
	}
	return sample
}

// appContents are what a script commits and overrides: no marker, each fault
// type (two load faults, so breadth is counted per content), and bytes that
// are not JSON.
var appContents = []string{
	`{"v":1}`,
	`{"_fault":{"type":"error","intensity":1.0}}`,
	`{"_fault":{"type":"load","intensity":1.0}}`,
	`{"v":2,"_fault":{"type":"load","intensity":0.5}}`,
	`{"_fault":{"type":"latency","intensity":0.5}}`,
	`{"_fault":{"type":"crash","intensity":0.3}}`,
	`{"_fault":{"type":"log_spew","intensity":1.0}}`,
	`not json`,
}

// appRig is one fleet a script drives, with a Zeus writer and the paths the
// script names: three subscribed before anything is committed, then one per
// fresh-path canary. With a registry, each path has a trace of its own, where
// the proxies record every version's first application read.
type appRig struct {
	f      *Fleet
	writer *zeus.Client
	paths  []string
	fresh  int
}

func newAppRig(reg *obs.Registry) *appRig {
	cfg := SmallConfig(2, 7)
	cfg.Obs = reg
	f := New(cfg)
	f.Net.RunFor(10 * time.Second)
	r := &appRig{f: f, writer: zeus.NewClient("app-writer", f.Ensemble.Members)}
	f.Net.AddNode("app-writer", simnet.Placement{Region: "us-west", Cluster: "ctrl"}, r.writer)
	for i := 0; i < 3; i++ {
		r.add(fmt.Sprintf("/configs/app%d.json", i))
		f.SubscribeAll(r.paths[i])
	}
	return r
}

// add names a path in the script, and traces it when the fleet has a registry.
func (r *appRig) add(path string) {
	r.paths = append(r.paths, path)
	r.f.Obs.BindPath(path, r.f.Obs.StartTrace(path, r.f.Net.Now()))
}

// appRunFor is how long a script op lets the fleet run after it.
var appRunFor = [4]time.Duration{0, 500 * time.Millisecond, 3 * time.Second, 20 * time.Second}

// do applies one op of a script: op picks the action and the run after it, a
// and b its path, content and servers. It returns the op's name.
func (r *appRig) do(op, a, b byte) string {
	servers := r.f.AllServers()
	path := r.paths[int(a)%len(r.paths)]
	content := []byte(appContents[int(a)/len(r.paths)%len(appContents)])
	prefix := r.f.Servers()[:1+int(b)%len(servers)]
	s := servers[int(b)%len(servers)]
	var name string
	switch op % 9 {
	case 0:
		name = fmt.Sprintf("commit %s %s", path, content)
		r.f.Net.After(0, func() {
			ctx := simnet.MakeContext(r.f.Net, "app-writer")
			r.writer.Write(&ctx, path, content, nil)
		})
	case 1:
		name = "delete " + path
		r.f.Net.After(0, func() {
			ctx := simnet.MakeContext(r.f.Net, "app-writer")
			r.writer.Delete(&ctx, path, nil)
		})
	case 2:
		name = fmt.Sprintf("override %s on %d servers with %s", path, len(prefix), content)
		r.f.DeployTemp(prefix, path, content)
	case 3:
		name = fmt.Sprintf("roll back %s on %d servers", path, len(prefix))
		r.f.Rollback(prefix, path)
	case 4:
		name = "crash " + string(s.ID)
		r.f.Net.Fail(s.ID)
	case 5:
		name = "restart " + string(s.ID)
		r.f.Net.Recover(s.ID)
	case 6, 7:
		verb := map[byte]string{6: "partition ", 7: "heal "}[op%9]
		name = verb + string(s.ID)
		for _, o := range r.f.Observers(s.Placement.Cluster) {
			if op%9 == 6 {
				r.f.Net.Partition(s.ID, o)
			} else {
				r.f.Net.Heal(s.ID, o)
			}
		}
	case 8:
		r.fresh++
		fresh := fmt.Sprintf("/configs/fresh%d.json", r.fresh)
		r.add(fresh)
		name = fmt.Sprintf("canary fresh %s on %d servers", fresh, len(prefix))
		r.f.DeployTemp(prefix, fresh, []byte(appContents[int(a)%len(appContents)]))
	}
	d := appRunFor[int(op)/9%len(appRunFor)]
	r.f.Net.RunFor(d)
	return fmt.Sprintf("%s, run %v", name, d)
}

// checkAppScript drives two same-seed fleets through one script, three bytes
// an op, once without a registry and once with one: after every op the first
// fleet is sampled by the maintained app model and the second by the polled
// reference, server by server. Every sample must be equal, and so must the
// simulator's event, byte and drop counts and each proxy's fetches, failovers
// and stale reads — the maintained model reads a cold cell, with its fetch and
// watch, exactly when the polled one does — and, with a registry, the
// commit-to-first-read histogram, every path's trace (each first read happens
// at the instant the polled model makes it) and the counters
// (checkAppCounters).
func checkAppScript(t *testing.T, script []byte) {
	checkAppScriptObs(t, script, false)
	checkAppScriptObs(t, script, true)
}

func checkAppScriptObs(t *testing.T, script []byte, withObs bool) {
	var regs [2]*obs.Registry
	if withObs {
		regs = [2]*obs.Registry{obs.New(), obs.New()}
	}
	kept, polled := newAppRig(regs[0]), newAppRig(regs[1])
	for _, s := range polled.f.AllServers() {
		s.Proxy.OnChange(nil) // the reference reads at samples only
	}
	for i := 0; i+2 < len(script) && i < 3*40; i += 3 {
		op := kept.do(script[i], script[i+1], script[i+2])
		polled.do(script[i], script[i+1], script[i+2])
		for j, s := range kept.f.AllServers() {
			got, want := kept.f.Sample(s.ID), polledAppModel(polled.f, polled.f.AllServers()[j])
			if !maps.Equal(got, want) {
				t.Fatalf("op %d (%s): %s samples %v, the polled model %v", i/3, op, s.ID, got, want)
			}
		}
		kn, pn := kept.f.Net, polled.f.Net
		if a, b := [3]uint64{kn.Events, kn.BytesSent, kn.Dropped}, [3]uint64{pn.Events, pn.BytesSent, pn.Dropped}; a != b {
			t.Fatalf("op %d (%s): simulator events, bytes, drops %v with the maintained model, %v with the polled one", i/3, op, a, b)
		}
		for j, s := range kept.f.AllServers() {
			kp, pp := s.Proxy, polled.f.AllServers()[j].Proxy
			if a, b := [3]uint64{kp.Fetches, kp.Failovers, kp.StaleReads.Load()}, [3]uint64{pp.Fetches, pp.Failovers, pp.StaleReads.Load()}; a != b {
				t.Fatalf("op %d (%s): %s fetches, failovers, stale reads %v with the maintained model, %v with the polled one", i/3, op, s.ID, a, b)
			}
		}
		if a, b := regs[0].Histogram(obs.HistCommitToRead), regs[1].Histogram(obs.HistCommitToRead); a.Count() != b.Count() || a.Sum() != b.Sum() {
			t.Fatalf("op %d (%s): first reads %s with the maintained model, %s with the polled one", i/3, op, a.Summary(), b.Summary())
		}
		for _, path := range kept.paths {
			if a, b := traceJSON(t, regs[0].TraceByKey(path)), traceJSON(t, regs[1].TraceByKey(path)); a != b {
				t.Fatalf("op %d (%s): the trace of %s differs:\nmaintained %s\npolled     %s", i/3, op, path, a, b)
			}
		}
		if withObs {
			checkAppCounters(t, fmt.Sprintf("op %d (%s)", i/3, op), regs[0].Counters().Snapshot(), regs[1].Counters().Snapshot())
		}
	}
}

// checkAppCounters requires the registries' counters to be equal, except
// proxy.read.degraded: it counts warm reads served while the plane is down,
// and the maintained model makes no read of a warm view that did not move, so
// it may only count fewer.
func checkAppCounters(t *testing.T, at string, kept, polled map[string]int64) {
	t.Helper()
	const degraded = "proxy.read.degraded"
	if a, b := kept[degraded], polled[degraded]; a > b {
		t.Fatalf("%s: %s is %d with the maintained model, %d with the polled one", at, degraded, a, b)
	}
	delete(kept, degraded)
	delete(polled, degraded)
	if !maps.Equal(kept, polled) {
		t.Fatalf("%s: counters differ:\nmaintained %v\npolled     %v", at, kept, polled)
	}
}

// TestMaintainedSampleMatchesPolled: random schedules of commits, deletes,
// re-creates, canary overrides and rollbacks, crashes, restarts, partitions and
// heals keep every maintained sample equal to the polled reference.
func TestMaintainedSampleMatchesPolled(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 3*40)
		rng.Read(script)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkAppScript(t, script) })
	}
}

// FuzzMaintainedSampleMatchesPolled: the same differential over scripts
// decoded from the fuzzer's bytes. The seed corpus — an override whose server
// crashes and restarts before the rollback, a load fault whose breadth moves
// with commits and rollbacks, a fresh-path canary on a partitioned server — is
// in testdata/fuzz.
func FuzzMaintainedSampleMatchesPolled(f *testing.F) {
	f.Add([]byte{2, 5, 3, 18, 0, 1, 0, 2, 0, 21, 4, 2})
	f.Fuzz(checkAppScript)
}
