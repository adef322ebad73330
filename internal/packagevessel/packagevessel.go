// Package packagevessel implements PackageVessel (§3.5): distribution of
// large configs (e.g. GBs of machine-learning models) by separating a
// config's small metadata from its bulk content — rebuilt around a
// content-addressed chunk store (see the blob subpackage).
//
// Publishing is Publish(Package): the registry chunks the content,
// registers only the digests absent from its store (cross-version dedup),
// and returns a blob.Manifest. The small Metadata record stored in
// Configerator names that manifest by digest; when it lands, Zeus pushes
// it through the distribution tree with the usual consistency guarantee,
// and every subscribed server's Agent fetches the manifest, journals the
// transfer, and swarms the missing chunks from peers — rarest-digest-
// first, locality aware, several in parallel with a per-peer in-flight
// cap. Integrity is verification of a digest rather than trust in a
// sender: a chunk whose bytes do not hash to the manifest entry
// quarantines the peer that served it, and the chunk is re-fetched from
// another holder.
//
// Because chunks are identified by content, most of a new version already
// exists on every peer that holds the old one — an Agent starting v2
// fetches only the changed digests, and seeds advertise digests, not
// (name, version, index) triples, so a v1 holder is automatically a
// useful seed for v2. An interrupted transfer resumes from the journal:
// a restarted Agent re-verifies what is on disk and fetches only what is
// missing.
//
// Versions are immutable once published; mutable names live in the tag
// namespace (latest, canary, prod). Promote is an explicit metadata
// write — a TagRecord landed through the landing strip like any other
// change, with a promotion gate (internal/landingstrip) refusing tags
// that name unpublished versions or skip the canary stage on the way to
// prod.
package packagevessel

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"configerator/internal/packagevessel/blob"
	"configerator/internal/simnet"
	"configerator/internal/stats"
)

// DefaultChunkSize is 1 MiB, a typical piece size.
const DefaultChunkSize = 1 << 20

// ---- Metadata: the small record stored in Configerator ----

// Metadata is the small artifact stored in Configerator for a large
// config: it names the package's manifest by content digest; the bulk
// content is wholly derivable from that. Registry and Tracker locate the
// authoritative copy and the swarm coordinator.
type Metadata struct {
	Name     string        `json:"name"`
	Version  int64         `json:"version"`
	Size     int64         `json:"size"`
	Manifest string        `json:"manifest"` // hex digest of the manifest encoding
	Registry simnet.NodeID `json:"registry"`
	Tracker  simnet.NodeID `json:"tracker"`
}

// MetadataFor builds the record announcing a published manifest.
func MetadataFor(m blob.Manifest, registry, tracker simnet.NodeID) Metadata {
	return Metadata{
		Name: m.Name, Version: m.Version, Size: m.Size(),
		Manifest: m.Digest().String(), Registry: registry, Tracker: tracker,
	}
}

// ManifestDigest decodes the manifest's content address.
func (m Metadata) ManifestDigest() (blob.Digest, error) {
	return blob.ParseDigest(m.Manifest)
}

// Encode renders the metadata artifact (what Configerator stores).
func (m Metadata) Encode() ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("packagevessel: encoding metadata %s@%d: %w", m.Name, m.Version, err)
	}
	return b, nil
}

// ParseMetadata decodes and validates a metadata artifact. Negative
// versions are rejected — version numbers only move forward.
func ParseMetadata(data []byte) (Metadata, error) {
	var m Metadata
	if err := json.Unmarshal(data, &m); err != nil {
		return Metadata{}, fmt.Errorf("packagevessel: parsing metadata: %w", err)
	}
	switch {
	case m.Name == "":
		return Metadata{}, fmt.Errorf("packagevessel: metadata without a name")
	case m.Version < 0:
		return Metadata{}, fmt.Errorf("packagevessel: metadata %s: negative version %d", m.Name, m.Version)
	case m.Size <= 0:
		return Metadata{}, fmt.Errorf("packagevessel: metadata %s@%d: size %d", m.Name, m.Version, m.Size)
	}
	if _, err := m.ManifestDigest(); err != nil {
		return Metadata{}, fmt.Errorf("packagevessel: metadata %s@%d: %w", m.Name, m.Version, err)
	}
	return m, nil
}

// ---- Package: what a publisher hands to the registry ----

// Package is the publisher-side content of one version.
type Package struct {
	Name    string
	Version int64
	Chunks  []*blob.Chunk
}

// Size is the total logical size.
func (p Package) Size() int64 {
	var n int64
	for _, c := range p.Chunks {
		n += int64(c.Size())
	}
	return n
}

// SyntheticPackage builds a deterministic package of the given logical
// size: chunk i's content depends on (name, seed, i) but NOT on the
// version, so a mutated successor built with NextVersion shares every
// unchanged chunk's digest with its predecessor — exactly how a real
// model delta behaves after content-defined chunking.
func SyntheticPackage(name string, version int64, size, chunkSize int, seed uint64) Package {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	p := Package{Name: name, Version: version}
	for off, i := 0, 0; off < size; off, i = off+chunkSize, i+1 {
		logical := chunkSize
		if size-off < chunkSize {
			logical = size - off
		}
		data := []byte(fmt.Sprintf("%s|%x|%d", name, seed, i))
		p.Chunks = append(p.Chunks, blob.NewChunk(data, logical))
	}
	return p
}

// NextVersion derives a successor version that rewrites a deterministic
// changedFrac fraction of the chunks (at least one) and keeps the rest
// byte-identical — the delta-publish scenario content addressing exists
// for.
func NextVersion(p Package, version int64, changedFrac float64, seed uint64) Package {
	n := len(p.Chunks)
	changed := int(changedFrac * float64(n))
	if changed < 1 {
		changed = 1
	}
	if changed > n {
		changed = n
	}
	next := Package{Name: p.Name, Version: version, Chunks: make([]*blob.Chunk, n)}
	copy(next.Chunks, p.Chunks)
	rng := stats.NewRNG(seed ^ uint64(version))
	for _, i := range rng.Perm(n)[:changed] {
		data := []byte(fmt.Sprintf("%s|%x|%d|v%d", p.Name, seed, i, version))
		next.Chunks[i] = blob.NewChunk(data, p.Chunks[i].Size())
	}
	return next
}

// Manifest lists the package's chunk references in order.
func (p Package) Manifest() blob.Manifest {
	m := blob.Manifest{Name: p.Name, Version: p.Version}
	for _, c := range p.Chunks {
		m.Chunks = append(m.Chunks, blob.Ref{Digest: c.Digest(), Size: c.Size()})
	}
	return m
}

// ---- Tags: the mutable namespace over immutable versions ----

// KnownTags is the tag namespace: latest moves on publish, canary and
// prod move only through explicit promotion.
var KnownTags = []string{"latest", "canary", "prod"}

// TagRecord is the small config artifact a promotion writes: it binds a
// tag to an immutable (version, manifest digest) pair. Landing one
// through the landing strip is the promotion.
type TagRecord struct {
	Name     string `json:"name"`
	Tag      string `json:"tag"`
	Version  int64  `json:"version"`
	Manifest string `json:"manifest"`
}

// Encode renders the tag artifact.
func (t TagRecord) Encode() ([]byte, error) {
	b, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("packagevessel: encoding tag %s/%s: %w", t.Name, t.Tag, err)
	}
	return b, nil
}

// ParseTagRecord decodes and validates a tag artifact. The manifest must be
// a well-formed digest: a tag binds a version to immutable content.
func ParseTagRecord(data []byte) (TagRecord, error) {
	var t TagRecord
	if err := json.Unmarshal(data, &t); err != nil {
		return TagRecord{}, fmt.Errorf("packagevessel: parsing tag record: %w", err)
	}
	if t.Name == "" || t.Tag == "" {
		return TagRecord{}, fmt.Errorf("packagevessel: tag record missing name or tag")
	}
	if t.Version <= 0 {
		return TagRecord{}, fmt.Errorf("packagevessel: tag %s/%s: version %d", t.Name, t.Tag, t.Version)
	}
	if !validTag(t.Tag) {
		return TagRecord{}, fmt.Errorf("packagevessel: tag %s/%s: unknown tag (namespace: %s)",
			t.Name, t.Tag, strings.Join(KnownTags, ", "))
	}
	if _, err := blob.ParseDigest(t.Manifest); err != nil {
		return TagRecord{}, fmt.Errorf("packagevessel: tag %s/%s: %w", t.Name, t.Tag, err)
	}
	return t, nil
}

func validTag(tag string) bool {
	for _, t := range KnownTags {
		if t == tag {
			return true
		}
	}
	return false
}

// TagPath is where a package's tag record lives in the config tree.
func TagPath(name, tag string) string {
	return "packages/" + name + "/" + tag + ".vessel.json"
}

// ParseTagPath inverts TagPath.
func ParseTagPath(path string) (name, tag string, ok bool) {
	rest, found := strings.CutPrefix(path, "packages/")
	if !found {
		return "", "", false
	}
	i := strings.LastIndexByte(rest, '/')
	if i <= 0 {
		return "", "", false
	}
	tag, found = strings.CutSuffix(rest[i+1:], ".vessel.json")
	if !found || tag == "" {
		return "", "", false
	}
	return rest[:i], tag, true
}

// ---- Registry: the authoritative store + tag authority ----

// PublishStats accounts one Publish call.
type PublishStats struct {
	NewChunks   int
	DedupChunks int
	NewBytes    int64
	DedupBytes  int64
}

// Registry is the storage system holding the authoritative copy of every
// published package, keyed by content digest, plus the tag namespace. It
// is a simnet node serving manifest and chunk fetches, and the first seed
// of every swarm.
type Registry struct {
	id      simnet.NodeID
	net     *simnet.Network
	tracker simnet.NodeID
	store   *blob.Store
	tags    map[string]map[string]int64 // name -> tag -> version
	last    PublishStats

	// ChunksServed counts chunks served (the load P2P is meant to shed).
	ChunksServed uint64
}

// NewRegistry creates the registry node. tracker is the swarm coordinator
// Publish seeds.
func NewRegistry(net *simnet.Network, id simnet.NodeID, p simnet.Placement, tracker simnet.NodeID) *Registry {
	r := &Registry{
		id: id, net: net, tracker: tracker,
		store: blob.NewStore(),
		tags:  make(map[string]map[string]int64),
	}
	net.AddNode(id, p, r)
	return r
}

// ID is the registry's node id.
func (r *Registry) ID() simnet.NodeID { return r.id }

// Store exposes the registry's blob store (read-mostly; used by status
// views and the promotion gate).
func (r *Registry) Store() *blob.Store { return r.store }

// Publish registers one package version: chunks absent from the store are
// added, already-known digests are deduped (counted, not re-stored), the
// manifest is recorded, the swarm coordinator is seeded with the
// registry's digests, and the "latest" tag advances. Returns the manifest
// whose digest the Configerator metadata should carry.
func (r *Registry) Publish(p Package) (blob.Manifest, error) {
	if p.Name == "" {
		return blob.Manifest{}, fmt.Errorf("packagevessel: publish without a name")
	}
	if p.Version <= 0 {
		return blob.Manifest{}, fmt.Errorf("packagevessel: publish %s: version %d (must be > 0)", p.Name, p.Version)
	}
	if len(p.Chunks) == 0 {
		return blob.Manifest{}, fmt.Errorf("packagevessel: publish %s@%d: empty package", p.Name, p.Version)
	}
	m := p.Manifest()
	if err := m.Validate(); err != nil {
		// What an agent would refuse to parse is refused here instead.
		return blob.Manifest{}, fmt.Errorf("packagevessel: publish: %w", err)
	}
	if prev, ok := r.store.Manifest(p.Name, p.Version); ok {
		if prev.Digest() != m.Digest() {
			return blob.Manifest{}, fmt.Errorf("packagevessel: publish %s@%d: version already published with different content", p.Name, p.Version)
		}
		return prev, nil // idempotent republish
	}
	var st PublishStats
	for _, c := range p.Chunks {
		if r.store.Put(c) {
			st.NewChunks++
			st.NewBytes += int64(c.Size())
		} else {
			st.DedupChunks++
			st.DedupBytes += int64(c.Size())
		}
	}
	r.store.Begin(m, string(r.id), string(r.tracker))
	if err := r.store.Commit(m); err != nil {
		return blob.Manifest{}, err
	}
	r.last = st
	r.setTag(p.Name, "latest", p.Version)

	// Seed the swarm: advertise digests, not (name, version, index)
	// triples — a digest shared with an older version is already
	// advertised, which is what makes cross-version dedup visible to
	// rarest-first scheduling.
	digests := make([]blob.Digest, 0, len(m.Chunks))
	for d := range m.Distinct() {
		digests = append(digests, d)
	}
	sort.Slice(digests, func(i, j int) bool { return digests[i] < digests[j] })
	r.net.Send(r.id, r.tracker, msgAnnounce{Digests: digests})
	return m, nil
}

// LastPublish returns the dedup accounting of the most recent Publish.
func (r *Registry) LastPublish() PublishStats { return r.last }

// HasVersion reports whether (name, version) has been published.
func (r *Registry) HasVersion(name string, version int64) bool {
	return r.store.Complete(name, version)
}

// CurrentTag returns the version a tag currently points at.
func (r *Registry) CurrentTag(name, tag string) (int64, bool) {
	v, ok := r.tags[name][tag]
	return v, ok
}

// Tags returns a copy of the package's tag map.
func (r *Registry) Tags(name string) map[string]int64 {
	out := make(map[string]int64, len(r.tags[name]))
	for t, v := range r.tags[name] {
		out[t] = v
	}
	return out
}

// The tag-move refusals CheckTag returns.
var (
	ErrUnpublished = errors.New("packagevessel: version not published")
	ErrNotCanary   = errors.New("packagevessel: version is not the current canary")
)

// CheckTag states the tag rules once, for Promote, ApplyTag and the landing
// strip's gate: tag may point at (name, version) only if that version is
// published (ErrUnpublished), and prod only at the version currently tagged
// canary (ErrNotCanary; staged rollout: nothing reaches prod without passing
// through canary). It returns the version's manifest.
func (r *Registry) CheckTag(name, tag string, version int64) (blob.Manifest, error) {
	m, ok := r.store.Manifest(name, version)
	if !ok {
		return m, ErrUnpublished
	}
	if tag == "prod" {
		if canary, ok := r.CurrentTag(name, "canary"); !ok || canary != version {
			return m, ErrNotCanary
		}
	}
	return m, nil
}

// Promote validates a tag move and returns the TagRecord to land through
// the landing strip — the promotion IS that metadata write; the registry
// applies it only when ApplyTag is called after the change lands. The tag
// must be in the namespace, and the move must pass CheckTag.
func (r *Registry) Promote(name, tag string, version int64) (TagRecord, error) {
	if !validTag(tag) {
		return TagRecord{}, fmt.Errorf("packagevessel: promote %s: unknown tag %q (namespace: %s)",
			name, tag, strings.Join(KnownTags, ", "))
	}
	m, err := r.CheckTag(name, tag, version)
	switch err {
	case ErrUnpublished:
		return TagRecord{}, fmt.Errorf("packagevessel: promote %s/%s: version %d not published", name, tag, version)
	case ErrNotCanary:
		return TagRecord{}, fmt.Errorf("packagevessel: promote %s/prod: version %d is not the current canary (staged rollout requires canary first)", name, version)
	}
	return TagRecord{Name: name, Tag: tag, Version: version, Manifest: m.Digest().String()}, nil
}

// ApplyTag applies a landed promotion. It re-validates against the
// current registry state (the strip gate already checked; state may have
// moved between validation and land).
func (r *Registry) ApplyTag(rec TagRecord) error {
	m, err := r.CheckTag(rec.Name, rec.Tag, rec.Version)
	switch err {
	case ErrUnpublished:
		return fmt.Errorf("packagevessel: apply tag %s/%s: version %d not published", rec.Name, rec.Tag, rec.Version)
	case ErrNotCanary:
		return fmt.Errorf("packagevessel: apply tag %s/prod: version %d is not the current canary", rec.Name, rec.Version)
	}
	if got := m.Digest().String(); rec.Manifest != got {
		return fmt.Errorf("packagevessel: apply tag %s/%s: manifest digest %s does not match published %s",
			rec.Name, rec.Tag, rec.Manifest, got)
	}
	r.setTag(rec.Name, rec.Tag, rec.Version)
	return nil
}

func (r *Registry) setTag(name, tag string, version int64) {
	if r.tags[name] == nil {
		r.tags[name] = make(map[string]int64)
	}
	r.tags[name][tag] = version
}

// PackageNames lists published package names, sorted.
func (r *Registry) PackageNames() []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range r.store.Manifests() {
		if !seen[m.Name] {
			seen[m.Name] = true
			out = append(out, m.Name)
		}
	}
	sort.Strings(out)
	return out
}

// HandleMessage implements simnet.Handler: the registry serves manifest
// and chunk fetches.
func (r *Registry) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if serve(ctx, r.store, from, msg) {
		r.ChunksServed++
	}
}

// serve answers a manifest or chunk fetch out of store — the registry and
// every agent serve alike — and reports whether a chunk went out. Content
// addressing makes chunk serving version-free: any verified chunk in the
// store is safe to serve, because the requester verifies the digest itself.
func serve(ctx *simnet.Context, store *blob.Store, from simnet.NodeID, msg simnet.Message) bool {
	switch m := msg.(type) {
	case msgGetManifest:
		reply := msgManifest{Name: m.Name, Version: m.Version}
		if man, ok := store.Manifest(m.Name, m.Version); ok {
			reply.OK = true
			reply.Data = man.Encode()
		}
		ctx.SendSized(from, reply, len(reply.Data))
	case msgGetChunk:
		c, ok := store.Get(m.Digest)
		if !ok {
			ctx.SendSized(from, msgChunk{Digest: m.Digest}, 0)
			return false
		}
		ctx.SendSized(from, msgChunk{Digest: m.Digest, Data: c.Data(), Size: c.Size(), OK: true}, c.Size())
		return true
	}
	return false
}

// ---- Wire messages ----

// msgAnnounce advertises digests a node now holds (seeds on publish;
// agents piggyback announces on msgWant instead).
type msgAnnounce struct {
	Digests []blob.Digest
	// Complete marks the announcer as holding every advertised digest
	// durably (informational; rarity counting treats all holders alike).
	Complete bool
}

// msgWant is the agent -> tracker round: announce newly verified digests
// (Have), ask for up to Max grants covering Need, excluding Avoid peers
// (quarantined by the requester after digest mismatches).
type msgWant struct {
	Have  []blob.Digest
	Need  []blob.Digest
	Max   int
	Avoid []simnet.NodeID
}

// grant assigns one digest fetch to one holder.
type grant struct {
	Digest blob.Digest
	Peer   simnet.NodeID
}

// msgAssign is the tracker's reply: zero or more grants; Retry asks the
// agent to back off and re-request (all holders busy or unknown).
type msgAssign struct {
	Grants []grant
	Retry  bool
}

// msgGetManifest fetches a manifest by (name, version).
type msgGetManifest struct {
	Name    string
	Version int64
}

// msgManifest is the manifest reply; receivers verify the payload's
// digest against the metadata's ManifestDigest before trusting it.
type msgManifest struct {
	Name    string
	Version int64
	Data    []byte
	OK      bool
}

// msgGetChunk fetches one chunk by digest.
type msgGetChunk struct {
	Digest blob.Digest
}

// msgChunk carries chunk bytes; Size is the logical size charged on the
// wire.
type msgChunk struct {
	Digest blob.Digest
	Data   []byte
	Size   int
	OK     bool
}

// msgFetchDeadline is an agent's deadline timer: it reclaims the fetch
// slots whose peers went silent.
type msgFetchDeadline struct{}

// msgWantRetry re-requests grants after a Retry backoff.
type msgWantRetry struct {
	Name string
}

// msgManifestRetry re-requests a manifest fetch that went unanswered.
type msgManifestRetry struct {
	Name    string
	Version int64
}

// msgTrackerTick refills the tracker's per-holder grant budgets.
type msgTrackerTick struct{}
