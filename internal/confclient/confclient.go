// Package confclient is the Configerator client library that applications
// link in (§3.4): typed access to JSON configs served by the local proxy,
// change watches, and the disk-cache fallback that keeps an application
// running "even if all Configerator components fail".
//
// The v2 API is context-aware: Get(ctx, path) returns a Value carrying
// staleness metadata (version, source, age) so callers can tell a fresh
// read from a degraded one, and Watch(ctx, path, fn) stops delivering —
// and releases its proxy-side registration — once ctx is cancelled.
//
// Read hot path. Configs change rarely and are read constantly, so Get
// decodes each config version exactly once: the parse result is memoized
// in the proxy entry's per-version Memo slot, and decodes are further
// deduplicated by content hash — two paths holding identical bytes (or one
// path flapping between two versions) share a single json.Unmarshal. A
// warm Get reads the proxy's immutable entry in place (proxy.Proxy.Lookup)
// and loads its memo slot: no copy, no clock read, one atomic add and zero
// allocations (TestWarmGetZeroAlloc asserts it), safe from any goroutine.
// Only a degraded read works out its Age.
// The returned *Value is shared between readers and therefore immutable;
// its accessors (Int, String) return scalars.
package confclient

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"configerator/internal/obs"
	"configerator/internal/proxy"
)

// Value is a parsed view of one JSON config artifact, plus the staleness
// metadata of the read that produced it. Values returned by Get are shared
// between all readers of the same config version: treat them as immutable
// and read fields through the accessors.
type Value struct {
	Path    string
	Version int64
	Raw     []byte
	// Source says which layer served this value: proxy.SourceFresh from
	// memory with a healthy distribution plane, proxy.SourceCached from
	// memory during a plane outage, proxy.SourceStale from the on-disk
	// fallback.
	Source proxy.Source
	// Age is how long ago the local proxy last confirmed this value with
	// an observer (0 for fresh pushes; set on degraded reads so callers
	// can bound how stale a cached/stale value may be).
	Age    time.Duration
	fields map[string]interface{}
}

// emptyFields backs every unparseable or empty config so they share one
// allocation. It must never be written.
var emptyFields = map[string]interface{}{}

// Int returns an integer field, or def when absent or mistyped.
func (c *Value) Int(field string, def int64) int64 {
	if v, ok := c.fields[field].(float64); ok {
		return int64(v)
	}
	return def
}

// String returns a string field, or def when absent or mistyped.
func (c *Value) String(field, def string) string {
	if v, ok := c.fields[field].(string); ok {
		return v
	}
	return def
}

// Client is an application's handle to its local proxy. Get and Watch are
// safe for concurrent use from any goroutine.
type Client struct {
	proxy *proxy.Proxy

	obs *obs.Registry
	// cnt is the counters handle hoisted out of the per-call path: with no
	// registry attached it is a nil *obs.Counters whose Add is a no-op,
	// so decode accounting costs one nil check instead of a registry
	// lookup per call.
	cnt *obs.Counters

	// Hot-path read accounting. These are atomics, not obs counters: a
	// warm Get must not take the counters mutex (or allocate), and takes
	// one add.
	hits       atomic.Int64 // successful Gets
	memoMisses atomic.Int64 // successful Gets that found no decoded value in a memo slot

	// byHash deduplicates decodes across paths and versions: identical
	// bytes (same content hash) decode once no matter where they appear.
	mu     sync.Mutex
	byHash map[uint64]map[string]interface{}
}

// byHashCap bounds the decode-dedup table; when full it is reset rather
// than evicted (config churn is slow — refilling is cheap and rare).
const byHashCap = 4096

// New returns a client bound to the local proxy.
func New(p *proxy.Proxy) *Client {
	return &Client{
		proxy:  p,
		cnt:    (*obs.Registry)(nil).Counters(), // no-op default (nil-safe)
		byHash: make(map[uint64]map[string]interface{}),
	}
}

// SetObs attaches an observability registry that counts decodes and
// records the age of degraded reads; commit-to-read latency is recorded by
// the proxy underneath.
// The counters handle is resolved once here, keeping the per-call paths
// free of registry lookups. Call before sharing the client across
// goroutines.
func (c *Client) SetObs(r *obs.Registry) {
	c.obs = r
	c.cnt = r.Counters()
}

// Hits reports the number of successful Gets (hot-path accounting kept in
// atomics so reads never contend on the counters mutex).
func (c *Client) Hits() int64 { return c.hits.Load() }

// MemoHits reports how many Gets were served from a per-version decode
// memo — i.e. without parsing anything.
func (c *Client) MemoHits() int64 {
	misses := c.memoMisses.Load() // first: every miss counted is in hits already
	return c.hits.Load() - misses
}

// decodeFields parses data, deduplicating by content hash: the same bytes
// at two paths (or re-materialized at the same path) decode exactly once.
// h is the digest the proxy entry carries for data — never recomputed here.
// confclient.parse.memo counts hash-table hits, confclient.parse.decode
// actual json.Unmarshal calls.
func (c *Client) decodeFields(data []byte, h uint64) map[string]interface{} {
	if len(data) == 0 {
		return emptyFields
	}
	c.mu.Lock()
	f, ok := c.byHash[h]
	c.mu.Unlock()
	if ok {
		c.cnt.Add("confclient.parse.memo", 1)
		return f
	}
	var fields map[string]interface{}
	if err := json.Unmarshal(data, &fields); err != nil || fields == nil {
		// Non-object JSON (arrays, scalars) and raw configs are legal;
		// typed getters just won't find fields.
		fields = emptyFields
	}
	c.cnt.Add("confclient.parse.decode", 1)
	c.mu.Lock()
	if len(c.byHash) >= byHashCap {
		c.byHash = make(map[uint64]map[string]interface{})
	}
	c.byHash[h] = fields
	c.mu.Unlock()
	return fields
}

// valueFor returns the shared *Value for the version of e whose decode slot
// is memo, decoding at most once per version (and at most once per distinct
// content, across versions and paths); decoded says it found no value in the
// slot. The shared value always reads as fresh; degraded reads stamp their
// real Source/Age on a copy.
func (c *Client) valueFor(e *proxy.Entry, memo *proxy.Memo) (v *Value, decoded bool) {
	if v, ok := memo.Load().(*Value); ok {
		return v, false
	}
	v = &Value{
		Path:    e.Path,
		Version: e.Version,
		Raw:     e.Data,
		Source:  proxy.SourceFresh,
		fields:  c.decodeFields(e.Data, e.Hash),
	}
	// Racing readers of the same new version may both build v; either
	// result is correct and the slot keeps one (a stale read has no slot:
	// memo is nil and Store no-ops).
	memo.Store(v)
	return v, true
}

// Get returns the latest locally known value of a config, annotated with
// where it came from and how stale it may be. It never blocks:
// distribution is push-based, so the local copy is fresh except in the
// seconds after a change, and during a distribution-plane outage the
// proxy degrades to cached/stale values (Source says which) rather than
// failing. The error reports a cancelled context, or a config that has
// never been seen on this server at all.
//
// A warm fresh read returns the shared per-version value with zero
// allocations, reading the proxy's entry in place; a degraded read
// allocates one Value carrying its Source and Age.
func (c *Client) Get(ctx context.Context, path string) (*Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, src, memo := c.proxy.Lookup(path)
	if e == nil {
		return nil, fmt.Errorf("confclient: %s not available (never fetched on this server, or staleness refused)", path)
	}
	if !e.Exists {
		return nil, fmt.Errorf("confclient: %s deleted", path)
	}
	c.hits.Add(1)
	v, decoded := c.valueFor(e, memo)
	if decoded {
		c.memoMisses.Add(1)
	}
	if src == proxy.SourceFresh {
		return v, nil
	}
	// The age distribution of degraded serving is the staleness the
	// fleet-health SLOs bound; observing it here costs nothing on the
	// fresh (zero-alloc) path.
	age := c.proxy.Age(e)
	c.obs.Observe("confclient.read.stale_age", age)
	if memo != nil {
		// v is the version's shared value: stamp a copy, so it stays
		// immutable. A stale read's v was built for this read alone.
		vv := *v
		v = &vv
	}
	v.Source, v.Age = src, age
	return v, nil
}

// Watch invokes fn with the parsed value on every change (and does an
// initial fetch). Delivery stops — and the proxy-side registration is
// released — once ctx is cancelled, so a watcher cannot leak across proxy
// restarts. Unparseable payloads are delivered with empty fields so the
// application can fall back to Raw.
func (c *Client) Watch(ctx context.Context, path string, fn func(*Value)) {
	if ctx.Err() != nil {
		return
	}
	// Liveness is checked lazily at delivery time (not via a goroutine or
	// AfterFunc) so the single-threaded simulation stays deterministic and
	// race-free.
	alive := func() bool { return ctx.Err() == nil }
	c.proxy.SubscribeWhile(path, alive, func(e proxy.Entry) {
		if !e.Exists {
			return
		}
		v, _ := c.valueFor(&e, e.Memo())
		fn(v)
	})
}
