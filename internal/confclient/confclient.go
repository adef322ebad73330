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
// warm Get is one proxy snapshot read plus one atomic memo load: zero
// allocations (BenchmarkGet asserts it), safe from any goroutine. The
// returned *Value is shared between readers and therefore immutable —
// accessors that expose compound data (Strings, Map) copy on return.
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
	"configerator/internal/stats"
)

// Value is a parsed view of one JSON config artifact, plus the staleness
// metadata of the read that produced it. Values returned by Get are shared
// between all readers of the same config version: treat them as immutable
// and use the accessors, which copy mutable shapes on return.
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

// Fresh reports whether the value was served by a healthy distribution
// plane (as opposed to a degraded cached/stale layer).
func (c *Value) Fresh() bool { return c.Source == proxy.SourceFresh }

// emptyFields backs every unparseable or empty config so they share one
// allocation. It must never be written.
var emptyFields = map[string]interface{}{}

// Bool returns a boolean field, or def when absent or mistyped.
func (c *Value) Bool(field string, def bool) bool {
	if v, ok := c.fields[field].(bool); ok {
		return v
	}
	return def
}

// Int returns an integer field, or def when absent or mistyped.
func (c *Value) Int(field string, def int64) int64 {
	if v, ok := c.fields[field].(float64); ok {
		return int64(v)
	}
	return def
}

// Float returns a numeric field, or def when absent or mistyped.
func (c *Value) Float(field string, def float64) float64 {
	if v, ok := c.fields[field].(float64); ok {
		return v
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

// Strings returns a string-list field (nil when absent or mistyped). The
// slice is the caller's to mutate: it is built fresh on every call.
func (c *Value) Strings(field string) []string {
	raw, ok := c.fields[field].([]interface{})
	if !ok {
		return nil
	}
	out := make([]string, 0, len(raw))
	for _, e := range raw {
		if s, ok := e.(string); ok {
			out = append(out, s)
		}
	}
	return out
}

// Map returns a nested object field (nil when absent or mistyped). The map
// is a copy: mutating it cannot corrupt the shared decoded value that
// other readers of this config version see. Values nested inside it are
// still shared — treat them as read-only.
func (c *Value) Map(field string) map[string]interface{} {
	v, ok := c.fields[field].(map[string]interface{})
	if !ok {
		return nil
	}
	out := make(map[string]interface{}, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Has reports whether a field is present.
func (c *Value) Has(field string) bool {
	_, ok := c.fields[field]
	return ok
}

// Client is an application's handle to its local proxy. Get and Watch are
// safe for concurrent use from any goroutine.
type Client struct {
	proxy *proxy.Proxy

	obs *obs.Registry
	// cnt is the counters handle hoisted out of the per-call path: with no
	// registry attached it is a nil *stats.Counters whose Add is a no-op,
	// so miss/deleted/degraded accounting costs one nil check instead of a
	// registry lookup per call.
	cnt *stats.Counters

	// Hot-path read accounting. These are atomics, not obs counters: a
	// warm Get must not take the counters mutex (or allocate).
	hits     atomic.Int64 // successful Gets
	memoHits atomic.Int64 // Gets served from a per-version memo slot

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

// SetObs attaches an observability registry that counts application read
// outcomes; commit-to-read latency is recorded by the proxy underneath.
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
func (c *Client) MemoHits() int64 { return c.memoHits.Load() }

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

// valueFor turns a proxy entry into the shared *Value for its version,
// decoding at most once per version (and at most once per distinct
// content, across versions and paths). The shared value always reads as
// fresh; degraded reads get a copy carrying their real Source/Age.
func (c *Client) valueFor(e proxy.Entry) *Value {
	m := e.Memo()
	if v, ok := m.Load().(*Value); ok {
		c.memoHits.Add(1)
		return v
	}
	v := &Value{
		Path:    e.Path,
		Version: e.Version,
		Raw:     e.Data,
		Source:  proxy.SourceFresh,
		fields:  c.decodeFields(e.Data, e.Hash),
	}
	// Racing readers of the same new version may both build v; either
	// result is correct and the slot keeps one (disk entries have no slot:
	// m is nil and Store no-ops).
	m.Store(v)
	return v
}

// Get returns the latest locally known value of a config, annotated with
// where it came from and how stale it may be. It never blocks:
// distribution is push-based, so the local copy is fresh except in the
// seconds after a change, and during a distribution-plane outage the
// proxy degrades to cached/stale values (Source says which) rather than
// failing. The error reports a cancelled context, or a config that has
// never been seen on this server at all.
//
// Warm fresh reads return the shared per-version value with zero
// allocations; degraded reads allocate one copy to carry Source and Age.
func (c *Client) Get(ctx context.Context, path string) (*Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := c.proxy.Read(path)
	if !r.OK {
		c.cnt.Add("confclient.read.miss", 1)
		return nil, fmt.Errorf("confclient: %s not available (never fetched on this server, or staleness refused)", path)
	}
	if !r.Exists {
		c.cnt.Add("confclient.read.deleted", 1)
		return nil, fmt.Errorf("confclient: %s deleted", path)
	}
	c.hits.Add(1)
	v := c.valueFor(r.Entry)
	if r.Source != proxy.SourceFresh {
		c.cnt.Add("confclient.read.degraded", 1)
		// The age distribution of degraded serving is the staleness the
		// fleet-health SLOs bound; observing it here costs nothing on the
		// fresh (zero-alloc) path.
		c.obs.Observe("confclient.read.stale_age", r.Age)
		// Degraded read: same decode, real staleness metadata on a copy so
		// the shared value stays immutable.
		vv := *v
		vv.Source, vv.Age = r.Source, r.Age
		return &vv, nil
	}
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
		fn(c.valueFor(e))
	})
}

// Want prefetches configs so later Get calls hit the warm cache. An
// application declares the configs it needs on startup.
func (c *Client) Want(paths ...string) {
	for _, p := range paths {
		c.proxy.Want(p)
	}
}
