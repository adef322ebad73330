// Package laser models Laser (§4): a key-value store on flash/memory that
// Gatekeeper's "laser()" restraint queries for gating decisions too
// expensive to compute inline — e.g. "users whose recent posts relate to
// trending topics" (stream processing) or "users suitable for a feature"
// (a MapReduce job re-run periodically). Any system can integrate with
// Gatekeeper by putting data into Laser.
package laser

import (
	"sync"
	"sync/atomic"
)

// key is the paper's "$project-$user_id", kept as the pair so a lookup
// formats nothing.
type key struct {
	project string
	userID  int64
}

// Store is the (project, user) → score store.
type Store struct {
	mu   sync.RWMutex
	data map[key]float64

	// Gets counts lookups (the restraint-cost statistics feed on this).
	Gets atomic.Uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{data: make(map[key]float64)}
}

// Get returns a user's score under project; ok reports presence.
func (s *Store) Get(project string, userID int64) (float64, bool) {
	s.Gets.Add(1)
	s.mu.RLock()
	v, ok := s.data[key{project, userID}]
	s.mu.RUnlock()
	return v, ok
}

// Set stores one score (the stream-processing path: continuous updates).
func (s *Store) Set(project string, userID int64, score float64) {
	s.mu.Lock()
	s.data[key{project, userID}] = score
	s.mu.Unlock()
}

// Delete removes a user's score.
func (s *Store) Delete(project string, userID int64) {
	s.mu.Lock()
	delete(s.data, key{project, userID})
	s.mu.Unlock()
}

// Len reports the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// BatchJob models the MapReduce path: an offline job that computes a score
// for every user and loads the output into Laser. Re-running the job
// refreshes the data for all users.
type BatchJob struct {
	Project string
	// Compute derives the score for one user.
	Compute func(userID int64) float64
}

// Run scores every user and bulk-loads the results.
func (j BatchJob) Run(store *Store, userIDs []int64) int {
	loaded := 0
	for _, id := range userIDs {
		store.Set(j.Project, id, j.Compute(id))
		loaded++
	}
	return loaded
}

// StreamFeeder models the stream-processing path: deltas applied as events
// arrive.
type StreamFeeder struct {
	Project string
	store   *Store
	// Events counts applied updates.
	Events uint64
}

// NewStreamFeeder returns a feeder writing into store.
func NewStreamFeeder(project string, store *Store) *StreamFeeder {
	return &StreamFeeder{Project: project, store: store}
}

// Feed applies one scored event for a user.
func (f *StreamFeeder) Feed(userID int64, score float64) {
	f.store.Set(f.Project, userID, score)
	f.Events++
}
