package simnet

// eventQueue is the simulator's one event queue: a 4-ary min-heap ordered
// by (at, seq). seq is the scheduling order, so same-instant events fire in
// the order they were scheduled; this total order is the determinism
// contract every seeded run relies on.
//
// The keys sit inline in each entry beside the event pointer, so a sift
// compares without touching the events themselves; a heap of bare *event
// chases two pointers per comparison. Four children per node halve the
// depth of a binary heap, and the four keys read at each level share one
// or two cache lines.
type eventQueue []queued

type queued struct {
	at  int64  // virtual ns since the network's base instant
	seq uint64 // scheduling order: the tie-break between equal at
	e   *event
}

func (a queued) before(b queued) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *eventQueue) push(x queued) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes and returns the earliest entry; the queue must not be empty.
func (q *eventQueue) pop() queued {
	h := *q
	top := h[0]
	last := len(h) - 1
	x := h[last]
	h[last] = queued{}
	h = h[:last]
	*q = h
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, last); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
	return top
}
