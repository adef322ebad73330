package simnet

import "math/bits"

// The event queue is a two-level hierarchical timer wheel with a far-future
// heap — the classic kernel-timer layout, tuned for this simulator's load
// shape: almost every message lands within a second of virtual now (network
// latencies), periodic timers land within minutes (heartbeats, polls), and only
// stragglers (hour-scale mobile polls, day-scale experiment probes) go
// further out. Scheduling is O(1) for the wheel levels; pop amortizes to
// O(1) plus a small heap on the events of one ~262 µs slot, which is what
// preserves the exact (at, seq) total order the rest of the repo's
// determinism contract is built on.
//
// Layout (times are int64 nanoseconds of virtual time since the network's
// base instant):
//
//	L0: 4096 slots × 2^18 ns (~262 µs)  → spans ~1.07 s
//	L1: 4096 slots × 2^30 ns (~1.07 s)  → spans ~73 min
//	far: binary min-heap for everything beyond the L1 horizon
//
// Invariants:
//   - cur is the absolute L0 slot of the cursor; virtual now never exceeds
//     the slot being drained (the clock only advances via pop).
//   - L0 holds only events in the cursor's own L1 slot, so its occupied
//     positions are a simple ascending range and bucket indexes never alias.
//   - L1 holds events in the 4095 L1 slots after the cursor's.
//   - far events were beyond the L1 horizon when pushed; they may drift into
//     the horizon as the cursor advances, so every window advance compares
//     the far-heap minimum against the next occupied L1 slot.
//   - events whose slot is at or behind the cursor go straight to the due
//     heap (a handler scheduling at "now" lands in the slot being drained).
//
// Per-slot event lists are intrusive (event.next), unordered; order is
// imposed by the due heap when the slot is staged.
const (
	tickShift  = 18                    // ~262 µs per L0 slot
	wheelBits  = 12                    // 4096 slots per level
	wheelSize  = 1 << wheelBits        // slots per level
	wheelMask  = wheelSize - 1         //
	l1Shift    = tickShift + wheelBits // ~1.07 s per L1 slot
	wheelWords = wheelSize / 64        // occupancy bitmap words
)

type eventWheel struct {
	cur     int64 // absolute L0 slot of the cursor
	pending int   // total undelivered events across due/L0/L1/far

	l0     [wheelSize]*event
	l1     [wheelSize]*event
	l0Bits [wheelWords]uint64
	l1Bits [wheelWords]uint64

	due eventHeap // staged events of drained slots, ordered by (at, seq)
	far eventHeap // beyond the L1 horizon, ordered by (at, seq)
}

func (w *eventWheel) push(e *event) {
	w.pending++
	slot := e.at >> tickShift
	if slot <= w.cur {
		w.due.push(e)
		return
	}
	c1 := w.cur >> wheelBits
	s1 := slot >> wheelBits
	switch {
	case s1 == c1:
		i := int(slot & wheelMask)
		e.next = w.l0[i]
		w.l0[i] = e
		w.l0Bits[i>>6] |= 1 << uint(i&63)
	case s1-c1 < wheelSize:
		i := int(s1 & wheelMask)
		e.next = w.l1[i]
		w.l1[i] = e
		w.l1Bits[i>>6] |= 1 << uint(i&63)
	default:
		w.far.push(e)
	}
}

// stage makes the due heap non-empty (or reports that nothing is pending):
// it advances the cursor to the next occupied slot, cascading L1 slots and
// far-heap arrivals into L0 as the window moves.
func (w *eventWheel) stage() bool {
	for len(w.due) == 0 {
		if w.pending == 0 {
			return false
		}
		if p, ok := scanFrom(&w.l0Bits, int(w.cur&wheelMask)); ok {
			w.cur = w.cur&^int64(wheelMask) | int64(p)
			e := w.l0[p]
			w.l0[p] = nil
			w.l0Bits[p>>6] &^= 1 << uint(p&63)
			for e != nil {
				nx := e.next
				e.next = nil
				w.due.push(e)
				e = nx
			}
			continue
		}
		w.advanceWindow()
	}
	return true
}

// advanceWindow moves the cursor to the start of the next L1 slot holding
// events — the earlier of the next occupied L1 bucket and the far-heap
// minimum — and scatters that slot's events into L0.
func (w *eventWheel) advanceWindow() {
	const maxInt64 = int64(^uint64(0) >> 1)
	c1 := w.cur >> wheelBits
	base := int(c1 & wheelMask)
	next1 := maxInt64
	if p, ok := scanCircular(&w.l1Bits, (base+1)&wheelMask); ok {
		next1 = c1 + int64((p-base+wheelSize)&wheelMask)
	}
	farS1 := maxInt64
	if len(w.far) > 0 {
		farS1 = w.far[0].at >> l1Shift
	}
	target := next1
	if farS1 < target {
		target = farS1
	}
	if target == maxInt64 {
		panic("simnet: event wheel has pending events but no occupied slot")
	}
	w.cur = target << wheelBits
	if target == next1 {
		i := int(target & wheelMask)
		e := w.l1[i]
		w.l1[i] = nil
		w.l1Bits[i>>6] &^= 1 << uint(i&63)
		for e != nil {
			nx := e.next
			w.placeL0(e)
			e = nx
		}
	}
	for len(w.far) > 0 && w.far[0].at>>l1Shift == target {
		w.placeL0(w.far.pop())
	}
}

func (w *eventWheel) placeL0(e *event) {
	i := int((e.at >> tickShift) & wheelMask)
	e.next = w.l0[i]
	w.l0[i] = e
	w.l0Bits[i>>6] |= 1 << uint(i&63)
}

func (w *eventWheel) pop() *event {
	if !w.stage() {
		return nil
	}
	w.pending--
	return w.due.pop()
}

func (w *eventWheel) peek() *event {
	if !w.stage() {
		return nil
	}
	return w.due[0]
}

// scanFrom returns the position of the first set bit at or after start.
func scanFrom(b *[wheelWords]uint64, start int) (int, bool) {
	wi := start >> 6
	if word := b[wi] &^ (1<<uint(start&63) - 1); word != 0 {
		return wi<<6 + bits.TrailingZeros64(word), true
	}
	for i := wi + 1; i < wheelWords; i++ {
		if b[i] != 0 {
			return i<<6 + bits.TrailingZeros64(b[i]), true
		}
	}
	return 0, false
}

// scanCircular scans from start to the end of the bitmap, then wraps to the
// beginning — circular order corresponds to ascending distance from start.
func scanCircular(b *[wheelWords]uint64, start int) (int, bool) {
	if p, ok := scanFrom(b, start); ok {
		return p, true
	}
	return scanFrom(b, 0)
}

// eventHeap is a binary min-heap of events ordered by (at, seq) — the same
// total order the old container/heap queue imposed, which is what makes the
// wheel's delivery schedule bit-identical to the reference heap's.
type eventHeap []*event

func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	q = q[:last]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		m := l
		if r := l + 1; r < len(q) && eventLess(q[r], q[l]) {
			m = r
		}
		if !eventLess(q[m], q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}
