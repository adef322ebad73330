package proxy

import (
	"slices"
	"strings"
	"time"

	"configerator/internal/health"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

const (
	pingInterval  = 2 * time.Second
	fetchTimeout  = 3 * time.Second
	maxPingMisses = 2

	// Retry backoff: base<<attempt up to the cap, jittered ±50%.
	backoffBase = 500 * time.Millisecond
	backoffCap  = 8 * time.Second

	// Hedging: a second fetch to another observer fires if the first has
	// not answered within max(hedgeMinDelay, observed p99 fetch RTT).
	hedgeMinDelay = 250 * time.Millisecond

	// planeDownAfter consecutive failures marks one observer dead; when
	// every observer is dead the distribution plane is considered down.
	planeDownAfter = 2

	// rttWindow caps the fetch-RTT history used for the hedge delay.
	rttWindow = 64
)

type msgTickPing struct{}
type msgFetchTimeout struct{ ReqID int64 }
type msgRetryFetch struct {
	c       *cell
	Attempt int
}
type msgHedgeFire struct{ ReqID int64 }

// fetchState is one outstanding fetch: the path's cell, the base entry whose
// hash we advertised (a "not modified" or delta reply is materialized against
// it; !base.Exists = nothing advertised), which observer we asked when, and
// the proxy life that asked.
type fetchState struct {
	c        *cell
	base     Entry
	observer simnet.NodeID
	sentAt   time.Time
	attempt  int
	hedge    bool
	life     uint32
}

// obsStats is the per-observer health ledger behind failover decisions.
type obsStats struct {
	ok         int
	fail       int
	consecFail int
	rttEWMA    float64 // milliseconds
}

// ObserverHealth exposes each observer's ledger as a health sample: the
// error rate and latency that healthiest scores (tests and dashboards).
func (p *Proxy) ObserverHealth() map[simnet.NodeID]health.Sample {
	out := make(map[simnet.NodeID]health.Sample, len(p.observers))
	for i, o := range p.observers {
		out[o] = health.Sample{
			health.MetricErrorRate: p.stats[i].errorRate(),
			health.MetricLatencyMs: p.stats[i].rttEWMA,
		}
	}
	return out
}

func (p *Proxy) observer() simnet.NodeID {
	if len(p.observers) == 0 {
		return ""
	}
	return p.observers[p.current%len(p.observers)]
}

// stat returns id's ledger, or a throwaway one when id is not one of ours.
func (p *Proxy) stat(id simnet.NodeID) *obsStats {
	if i := slices.Index(p.observers, id); i >= 0 {
		return &p.stats[i]
	}
	return &obsStats{}
}

// errorRate is the ledger's consecutive failures plus its failed share.
func (st *obsStats) errorRate() float64 {
	er := float64(st.consecFail)
	if total := st.ok + st.fail; total > 0 {
		er += float64(st.fail) / float64(total)
	}
	return er
}

// healthiest returns the index of the observer other than skip with the
// lowest score, errorRate*1000 + rttEWMA, ties broken by the lower id, or
// -1 when there is none. Error rate dominates (each consecutive failure
// outweighs a second of latency), so a dead observer ranks below a slow one.
func (p *Proxy) healthiest(skip simnet.NodeID) int {
	best, bestScore := -1, 0.0
	for i, o := range p.observers {
		if o == skip {
			continue
		}
		st := &p.stats[i]
		score := st.errorRate()*1000 + st.rttEWMA
		if best < 0 || score < bestScore || score == bestScore && o < p.observers[best] {
			best, bestScore = i, score
		}
	}
	return best
}

// recordFailure charges a failure to observer id. It wakes the keep-alive:
// the chain is no longer settled, and the next ping's answer must be heard.
func (p *Proxy) recordFailure(id simnet.NodeID) {
	if id == "" {
		return
	}
	p.lease.Wake()
	st := p.stat(id)
	st.fail++
	st.consecFail++
	if !p.snap.Load().planeDown && p.allObserversDead() {
		p.mutateSnap(func(s *snapshot) { s.planeDown = true })
		p.Obs.Add("proxy.plane.down", 1)
	}
}

func (p *Proxy) recordSuccess(ctx *simnet.Context, id simnet.NodeID, rtt time.Duration) {
	st := p.stat(id)
	st.ok++
	st.consecFail = 0
	if rtt >= 0 {
		ms := float64(rtt) / float64(time.Millisecond)
		if st.rttEWMA == 0 {
			st.rttEWMA = ms
		} else {
			st.rttEWMA = 0.8*st.rttEWMA + 0.2*ms
		}
	}
	if p.snap.Load().planeDown {
		// The plane healed. Fetches advertise the hashes we hold, so catch-up
		// is a delta (or "not modified") per path, or a full snapshot.
		p.mutateSnap(func(s *snapshot) { s.planeDown = false })
		p.Obs.Add("proxy.plane.heal", 1)
		p.resubscribe(ctx, p.watchedCells(), false)
	}
}

// settled reports whether an answered ping would change nothing but the
// pong count: none is outstanding, the current observer's ledger shows no
// failure since its last success, and the plane is up. Only then may the
// lease stand in for pings.
func (p *Proxy) settled() bool {
	return p.pingOutstanding == 0 && p.stat(p.observer()).consecFail == 0 && !p.snap.Load().planeDown
}

func (p *Proxy) allObserversDead() bool {
	for i := range p.stats {
		if p.stats[i].consecFail < planeDownAfter {
			return false
		}
	}
	return true
}

// backoff computes the retry delay for the given attempt: exponential from
// backoffBase up to backoffCap, jittered to 50–100% of the step with the
// network's deterministic RNG so runs stay reproducible.
func (p *Proxy) backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	half := int64(d / 2)
	return time.Duration(half + int64(p.net.RNG().Uint64()%uint64(half)))
}

// hedgeDelay derives the hedged-fetch trigger from the observed p99 fetch
// RTT — hedges fire only for outlier-slow fetches, not the common case.
func (p *Proxy) hedgeDelay() time.Duration {
	if len(p.rtts) == 0 {
		return 4 * hedgeMinDelay
	}
	// The p99 of a window of at most 100 samples is its largest.
	return max(hedgeMinDelay, slices.Max(p.rtts))
}

func (p *Proxy) recordRTT(rtt time.Duration) {
	if len(p.rtts) >= rttWindow {
		copy(p.rtts, p.rtts[1:])
		p.rtts = p.rtts[:rttWindow-1]
	}
	p.rtts = append(p.rtts, rtt)
}

// failover replaces the current observer with the healthiest alternative
// (health-scored; deterministic tie-break), or round-robins when the whole
// plane looks dead and scores cannot distinguish candidates.
func (p *Proxy) failover(ctx *simnet.Context) {
	if len(p.observers) <= 1 {
		return
	}
	old := p.observer()
	planeDown := p.snap.Load().planeDown
	next := (p.current + 1) % len(p.observers)
	if !planeDown {
		next = p.healthiest(old)
	}
	p.Failovers++
	cells := p.repoint(ctx, next)
	// Re-establish fetches+watches on the new observer, bypassing the
	// single-flight guard (the old observer may never answer). When the
	// plane is down this would be a refetch storm every timeout — the
	// per-path backoff retries own recovery instead.
	if !planeDown {
		p.resubscribe(ctx, cells, true)
	}
}

// repoint makes observers[i] current and returns the watched cells, sorted.
// The lease follows, and the observer left behind is told to drop our
// watches: a session nobody pings is never pruned while its pair is quiet.
func (p *Proxy) repoint(ctx *simnet.Context, i int) []*cell {
	old := p.observer()
	p.current = i
	p.pingOutstanding = 0
	p.lease.Point(p.observer())
	cells := p.watchedCells()
	for _, c := range cells {
		ctx.Send(old, zeus.MsgUnwatch{Path: c.path})
	}
	return cells
}

// watchedCells lists the watched paths' cells, sorted by path: every send draws
// link jitter from the network's shared RNG, so a walk that sends must not be
// in map order or same-seed runs diverge.
func (p *Proxy) watchedCells() []*cell {
	var cells []*cell
	p.each(func(c *cell) {
		if c.watched {
			cells = append(cells, c)
		}
	})
	slices.SortFunc(cells, func(a, b *cell) int { return strings.Compare(a.path, b.path) })
	return cells
}

// resubscribe (re-)establishes fetch+watch for cells (sorted) on the current
// observer: after a restart, plane heal or failover.
// force first abandons a path's outstanding fetches; else they are left to it.
func (p *Proxy) resubscribe(ctx *simnet.Context, cells []*cell, force bool) {
	for _, c := range cells {
		if force {
			p.dropPath(c)
		}
		p.sendFetch(ctx, c)
	}
}

// InflightCount reports how many fetches are outstanding (leak checks).
func (p *Proxy) InflightCount() int { return len(p.inflight) }

// sendFetch issues a fetch unless one is already in flight for the path
// (single-flight: a second Want before the reply arrives must not send a
// second MsgFetch).
func (p *Proxy) sendFetch(ctx *simnet.Context, c *cell) {
	if len(c.reqs) > 0 {
		p.Obs.Add("proxy.fetch.singleflight", 1)
		return
	}
	p.fetchFrom(ctx, c, p.observer(), true, 0, false)
}

// deltaFallback abandons all outstanding fetches for the path and demands the
// full snapshot, advertising nothing.
func (p *Proxy) deltaFallback(ctx *simnet.Context, c *cell) {
	p.Obs.Add("proxy.delta.fallback", 1)
	p.dropPath(c)
	p.fetchFrom(ctx, c, p.observer(), false, 0, false)
}

// dropPath forgets every outstanding fetch for a path.
func (p *Proxy) dropPath(c *cell) {
	for _, id := range c.reqs {
		delete(p.inflight, id)
	}
	c.reqs = nil
}

// dropReq forgets one outstanding fetch.
func (p *Proxy) dropReq(reqID int64) {
	if st, ok := p.inflight[reqID]; ok {
		delete(p.inflight, reqID)
		st.c.reqs = slices.DeleteFunc(st.c.reqs, func(id int64) bool { return id == reqID })
	}
}

// fetchFrom sends a fetch to target and arms its deadline and hedge timers. It
// advertises what the cell holds, in memory or only on disk, by reference.
func (p *Proxy) fetchFrom(ctx *simnet.Context, c *cell, target simnet.NodeID, advertise bool, attempt int, hedge bool) {
	p.nextReq++
	st := fetchState{c: c, observer: target, sentAt: ctx.Now(), attempt: attempt, hedge: hedge, life: p.life.Load()}
	if advertise {
		if es := c.st.Load(); es != nil && es.e.Exists {
			st.base = es.e
		}
	}
	p.inflight[p.nextReq] = st
	c.reqs = append(c.reqs, p.nextReq)
	p.Fetches++
	if target == "" {
		return
	}
	m := zeus.MsgFetch{ReqID: p.nextReq, Path: c.path, Watch: true}
	m.Have, m.HaveHash = st.base.Exists, st.base.Hash
	ctx.Send(target, m)
	ctx.SetTimer(fetchTimeout, msgFetchTimeout{ReqID: p.nextReq})
	if !hedge && len(p.observers) > 1 {
		ctx.SetTimer(p.hedgeDelay(), msgHedgeFire{ReqID: p.nextReq})
	}
}

// onFetchTimeout handles a fetch deadline expiring: mark the observer
// unhealthy, fail over off it if it is still current, and schedule a
// backed-off retry if no sibling fetch (hedge) remains in flight.
func (p *Proxy) onFetchTimeout(ctx *simnet.Context, m msgFetchTimeout) {
	st, ok := p.inflight[m.ReqID]
	if !ok {
		return
	}
	p.dropReq(m.ReqID)
	p.fetchFailed(ctx, st.c, st.observer, st.attempt)
}

// fetchFailed charges a failed attempt at path to the observer that owed
// the answer, fails over off it if it is still current, and schedules a
// backed-off retry unless another fetch for the path is already in flight.
func (p *Proxy) fetchFailed(ctx *simnet.Context, c *cell, observer simnet.NodeID, attempt int) {
	p.recordFailure(observer)
	if observer == p.observer() {
		p.failover(ctx)
	}
	if c.watched && len(c.reqs) == 0 {
		attempt++
		ctx.SetTimer(p.backoff(attempt), msgRetryFetch{c: c, Attempt: attempt})
		p.Obs.Add("proxy.fetch.retry", 1)
	}
}

// onHedgeFire sends the hedged duplicate of a still-unanswered fetch to
// the next-healthiest observer. First reply wins; the loser is discarded
// by the dropPath in onFetchReply.
func (p *Proxy) onHedgeFire(ctx *simnet.Context, m msgHedgeFire) {
	st, ok := p.inflight[m.ReqID]
	if !ok {
		return // answered already — the common case
	}
	i := p.healthiest(st.observer)
	if i < 0 {
		return
	}
	p.Obs.Add("proxy.fetch.hedged", 1)
	p.fetchFrom(ctx, st.c, p.observers[i], st.base.Exists, st.attempt, true)
}

func (p *Proxy) onFetchReply(ctx *simnet.Context, from simnet.NodeID, m zeus.MsgFetchReply) {
	st, ok := p.inflight[m.ReqID]
	if !ok {
		return
	}
	rtt := ctx.Now().Sub(st.sentAt)
	// First reply wins: discard the sibling (primary or hedge) before the
	// success bookkeeping, so a plane-heal resubscribe sweep sees this
	// path as idle and re-establishes its watch too.
	p.dropPath(st.c)
	// The replying observer holds our watch now (fetches register it); if
	// it is not the observer we point at — a hedge won, or we failed over
	// while the fetch was in flight — re-point at it, else its pushes
	// would be discarded as stale and the path would freeze. The other
	// watched paths move with it: the observer left behind drops them.
	if i := slices.Index(p.observers, from); i >= 0 && i != p.current {
		others := slices.DeleteFunc(p.repoint(ctx, i), func(c *cell) bool { return c == st.c })
		p.resubscribe(ctx, others, false)
	}
	p.recordRTT(rtt)
	p.recordSuccess(ctx, from, rtt)
	if st.hedge {
		p.Obs.Add("proxy.fetch.hedge_won", 1)
	}
	if m.NotModified && !st.base.Exists {
		// The observer claims our copy is current but we advertised
		// nothing — protocol confusion; demand the full snapshot.
		p.deltaFallback(ctx, st.c)
		return
	}
	p.receive(ctx, st.c, from, m.Update, st.base, m.NotModified, st.attempt)
}
