package proxy

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"configerator/internal/simnet"
	"configerator/internal/vcs"
	"configerator/internal/zeus"
)

// tablePaths returns n config paths, sorted.
func tablePaths(n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/configs/p%02d", i)
	}
	return paths
}

func tableBody(path string) []byte { return []byte("body of " + path) }

// cellPaths lists, sorted, the path of every cell s.each visits: a cell
// visited twice shows up twice.
func cellPaths(s *store) []string {
	var out []string
	s.each(func(c *cell) { out = append(out, c.path) })
	slices.Sort(out)
	return out
}

// TestCellTableAcrossGrowth: a proxy or a bare DiskCache holding 0, 1, 7, 8,
// 9 or 20 paths — both sides of inlineCells and the step across it — answers
// every question that goes through the cell table as a reference map of its
// paths does: Read, SubCount, CachedPaths, the heartbeat's paths, the
// watched cells refetched after a restart, DiskCache.Load and New's seeding.
// Every walk visits each path's cell exactly once.
func TestCellTableAcrossGrowth(t *testing.T) {
	for _, k := range []int{0, 1, 7, 8, 9, 20} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			net := simnet.New(simnet.DefaultLatency(), 50+uint64(k))
			place := simnet.Placement{Region: "us", Cluster: "web"}
			var fetched []string
			net.AddNode("obs-1", place, simnet.HandlerFunc(func(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
				switch m := msg.(type) {
				case zeus.MsgFetch:
					fetched = append(fetched, m.Path)
					body := tableBody(m.Path)
					ctx.Send(from, zeus.MsgFetchReply{ReqID: m.ReqID, NotModified: m.Have, Update: zeus.Update{Path: m.Path, Version: 1, Zxid: 7,
						Payload: zeus.Payload{Full: body, NewHash: vcs.HashBytes(body)}}})
				case zeus.MsgPing:
					ctx.Send(from, zeus.MsgPong{})
				}
			}))
			var heartbeat MsgMonitorHeartbeat
			net.AddNode("mon", place, simnet.HandlerFunc(func(_ *simnet.Context, _ simnet.NodeID, msg simnet.Message) {
				if hb, ok := msg.(MsgMonitorHeartbeat); ok {
					heartbeat = hb
				}
			}))
			px := New(net, "proxy-1", place, []simnet.NodeID{"obs-1"}, nil)
			px.EnableMonitor("mon", 200*time.Millisecond)
			paths := tablePaths(k)
			subs := make(map[string]int) // the reference: path -> live subscriptions
			for i, path := range paths {
				subs[path] = i % 3
				px.Want(path)
				for range i % 3 {
					px.Subscribe(path, func(Entry) {})
				}
			}
			net.RunFor(time.Second)

			fresh := func(when string) {
				t.Helper()
				for _, path := range paths {
					if res := px.Read(path); !res.OK || res.Source != SourceFresh || !bytes.Equal(res.Data, tableBody(path)) {
						t.Errorf("%s: Read(%s) = %+v", when, path, res)
					}
				}
			}
			fresh("warm")
			for _, path := range paths {
				if got := px.SubCount(path); got != subs[path] {
					t.Errorf("SubCount(%s) = %d, want %d", path, got, subs[path])
				}
			}
			if got := px.SubCount("/configs/absent"); got != 0 {
				t.Errorf("SubCount of a path never heard of = %d", got)
			}
			if got := px.CachedPaths(); !slices.Equal(got, paths) {
				t.Errorf("CachedPaths = %v, want %v", got, paths)
			}
			var beat []string
			for _, ps := range heartbeat.Paths {
				beat = append(beat, ps.Path)
			}
			if !slices.Equal(beat, paths) {
				t.Errorf("heartbeat paths = %v, want %v", beat, paths)
			}
			if got := cellPaths(&px.store); !slices.Equal(got, paths) {
				t.Errorf("each visits %v, want %v", got, paths)
			}
			if _, ok := px.Disk().Load("/configs/absent"); ok {
				t.Error("Disk().Load found a path never heard of")
			}

			// A restart refetches every watched cell exactly once.
			fetched = nil
			net.Fail(px.ID())
			net.RunFor(time.Second)
			net.Recover(px.ID())
			net.RunFor(time.Second)
			slices.Sort(fetched)
			if !slices.Equal(fetched, paths) {
				t.Errorf("refetched after the restart: %v, want %v", fetched, paths)
			}
			fresh("after the restart")

			// A bare cache answers as its reference does, and seeds a proxy.
			disk := NewDiskCache()
			for _, path := range paths {
				disk.Store(Entry{Path: path, Exists: true, Data: tableBody(path), Version: 1, Zxid: 7})
			}
			for _, path := range paths {
				if e, ok := disk.Load(path); !ok || !bytes.Equal(e.Data, tableBody(path)) || e.Hash != vcs.HashBytes(e.Data) {
					t.Errorf("DiskCache.Load(%s) = %+v, %v", path, e, ok)
				}
			}
			if _, ok := disk.Load("/configs/absent"); ok {
				t.Error("DiskCache.Load found a path never stored")
			}
			if got := cellPaths(disk.s); !slices.Equal(got, paths) {
				t.Errorf("the cache's each visits %v, want %v", got, paths)
			}
			seeded := New(net, "proxy-2", place, []simnet.NodeID{"obs-1"}, disk)
			if got := cellPaths(&seeded.store); !slices.Equal(got, paths) {
				t.Errorf("the seeded proxy's each visits %v, want %v", got, paths)
			}
			for _, path := range paths {
				if res := seeded.Read(path); !res.OK || res.Source != SourceStale || !bytes.Equal(res.Data, tableBody(path)) {
					t.Errorf("seeded Read(%s) = %+v", path, res)
				}
			}
			if got := seeded.CachedPaths(); len(got) != 0 {
				t.Errorf("a proxy seeded from disk caches %v before its first fetch", got)
			}
		})
	}
}

// TestDiskCacheStoreRacesLoad: four goroutines store the same 20 paths at
// once while two more load them, so the same cell is asked for by several
// goroutines together and the table crosses from inline to the snapshot under
// load. Run under -race. A Load that finds a path finds all of its entry and
// finds it from then on, and afterwards every path is present, in exactly
// one cell.
func TestDiskCacheStoreRacesLoad(t *testing.T) {
	paths := tablePaths(20)
	for round := 0; round < 100; round++ {
		disk := NewDiskCache()
		var writers, readers sync.WaitGroup
		start, stop := make(chan struct{}), make(chan struct{})
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				seen := make(map[string]bool)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, path := range paths {
						e, ok := disk.Load(path)
						if ok && (!bytes.Equal(e.Data, tableBody(path)) || e.Path != path) || !ok && seen[path] {
							t.Errorf("Load(%s) = %+v, %v (found before: %v)", path, e, ok, seen[path])
							return
						}
						seen[path] = ok
					}
				}
			}()
		}
		for g := 0; g < 4; g++ {
			writers.Add(1)
			go func() {
				defer writers.Done()
				<-start
				for _, path := range paths {
					disk.Store(Entry{Path: path, Exists: true, Data: tableBody(path), Version: 1, Zxid: 7})
				}
			}()
		}
		close(start)
		writers.Wait()
		close(stop)
		readers.Wait()
		for _, path := range paths {
			if e, ok := disk.Load(path); !ok || !bytes.Equal(e.Data, tableBody(path)) {
				t.Fatalf("round %d: Load(%s) = %+v, %v after every Store returned", round, path, e, ok)
			}
		}
		if got := cellPaths(disk.s); !slices.Equal(got, paths) {
			t.Fatalf("round %d: each visits %v, want every path once", round, got)
		}
	}
}
