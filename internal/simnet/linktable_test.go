package simnet

import (
	"fmt"
	"testing"
	"time"

	"configerator/internal/stats"
)

// The link-table oracle: random traffic over many nodes on a jitter-free
// network, held to a model that keeps each directed link's state in one map
// keyed by (from, to). Every delivered message must arrive at the instant the
// model computes, and LinkBytes must equal the model's count on every
// directed pair, used or not, while the senders' tables grow from one slot to
// dozens.

const (
	ltNodes = 40
	ltBps   = 1e6 // bytes/s each way, so a sized message queues on its links
)

var ltLatency = LatencyModel{SameCluster: ms, SameRegion: 2 * ms, CrossRegion: 5 * ms}

func ltPlacement(i int) Placement {
	return Placement{Region: fmt.Sprint("r", i%2), Cluster: fmt.Sprint("c", i%3)}
}

// ltModel is the map model: the link rules of transmit with no jitter and
// no loss.
type ltModel struct {
	upFree, downFree [ltNodes]int64
	links            map[[2]int]struct {
		last  int64
		bytes uint64
	}
	cut   map[[2]int]bool
	extra map[[2]int]int64
}

// transmit returns when a size-byte message ready at instant ready arrives
// on from→to, or false if the link is cut.
func (m *ltModel) transmit(from, to, size int, ready int64) (int64, bool) {
	k := [2]int{from, to}
	if m.cut[k] {
		return 0, false
	}
	lat := int64(ltLatency.base(ltPlacement(from), ltPlacement(to))) + m.extra[k]
	arrive := ready + lat
	l := m.links[k]
	if size > 0 {
		depart := max(ready, m.upFree[from]) + int64(float64(size)/ltBps*float64(time.Second))
		m.upFree[from] = depart
		arrive = max(depart+lat, m.downFree[to]) + int64(float64(size)/ltBps*float64(time.Second))
		m.downFree[to] = arrive
		l.bytes += uint64(size)
	}
	arrive = max(arrive, l.last)
	l.last = arrive
	m.links[k] = l
	return arrive, true
}

func ltID(i int) NodeID { return NodeID(fmt.Sprint("n", i)) }

// runLinkTable decodes ops and applies each to the network and the model:
//
//	send       one node sends 0–2,500 bytes to another
//	broadcast  one node sends one payload to 1–8 others
//	spike      extra latency of 0–20 ms on one directed link (0 clears it)
//	cut, heal  a two-way partition between two nodes is made or lifted
//	advance    the network runs 0–15 ms
func runLinkTable(t *testing.T, ops []byte) {
	t.Helper()
	net := New(ltLatency, 1)
	start := net.Now()
	now := func() int64 { return int64(net.Now().Sub(start)) }
	got := map[[2]int]int64{} // (message, receiver) → arrival instant
	for i := 0; i < ltNodes; i++ {
		net.AddNode(ltID(i), ltPlacement(i), HandlerFunc(func(ctx *Context, _ NodeID, msg Message) {
			got[[2]int{msg.(int), i}] = int64(ctx.Now().Sub(start))
		}))
		net.SetBandwidth(ltID(i), ltBps, ltBps)
	}
	m := &ltModel{cut: map[[2]int]bool{}, extra: map[[2]int]int64{}}
	m.links = make(map[[2]int]struct {
		last  int64
		bytes uint64
	})
	want := map[[2]int]int64{}
	next := func(n int) int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b) % n
	}
	msg := 0
	for len(ops) > 0 {
		from, to := next(ltNodes), next(ltNodes)
		if to == from {
			to = (to + 1) % ltNodes
		}
		switch code := next(10); {
		case code < 4:
			size := next(26) * 100
			if at, ok := m.transmit(from, to, size, now()); ok {
				want[[2]int{msg, to}] = at
			}
			net.SendSized(ltID(from), ltID(to), msg, size)
			msg++
		case code < 6:
			size := next(26) * 100
			var tos []NodeID
			seen := map[int]bool{from: true}
			for k := next(8); k >= 0; k-- {
				to := next(ltNodes)
				if seen[to] {
					continue
				}
				seen[to] = true
				tos = append(tos, ltID(to))
				if at, ok := m.transmit(from, to, size, now()); ok {
					want[[2]int{msg, to}] = at
				}
			}
			net.Broadcast(ltID(from), tos, msg, size)
			msg++
		case code < 7:
			extra := time.Duration(next(21)) * ms
			m.extra[[2]int{from, to}] = int64(extra)
			net.SetLinkLatency(ltID(from), ltID(to), extra)
		case code < 8:
			cut := next(2) == 0
			m.cut[[2]int{from, to}], m.cut[[2]int{to, from}] = cut, cut
			if cut {
				net.Partition(ltID(from), ltID(to))
			} else {
				net.Heal(ltID(from), ltID(to))
			}
		default:
			net.RunFor(time.Duration(next(16)) * ms)
		}
	}
	net.Run()
	for k, at := range want {
		if got[k] != at {
			t.Fatalf("message %d reached n%d at %v, the map model says %v", k[0], k[1], time.Duration(got[k]), time.Duration(at))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d messages delivered, the map model delivers %d", len(got), len(want))
	}
	for f := 0; f < ltNodes; f++ {
		for to := 0; to < ltNodes; to++ {
			if b, w := net.LinkBytes(ltID(f), ltID(to)), m.links[[2]int{f, to}].bytes; b != w {
				t.Fatalf("LinkBytes(%d→%d) = %d, the map model says %d", f, to, b, w)
			}
		}
	}
}

// TestLinkTableMatchesMap: per-sender link tables keep FIFO arrival and byte
// counts exactly as one map of every directed link would.
func TestLinkTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		ops := make([]byte, 12000)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runLinkTable(t, ops)
	}
}

// FuzzLinkTableMatchesMap: the same oracle on fuzzed traffic.
func FuzzLinkTableMatchesMap(f *testing.F) {
	f.Add([]byte("\x00\x01\x00\x05\x01\x00\x02\x03\x02\x01\x09\x04\x00\x01\x04\x07\x03\x02\x00\x01\x05\x02"))
	f.Fuzz(runLinkTable)
}
