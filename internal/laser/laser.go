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

// Set stores one score. Whatever produces the data — a stream job, a
// periodic batch load — writes through it.
func (s *Store) Set(project string, userID int64, score float64) {
	s.mu.Lock()
	s.data[key{project, userID}] = score
	s.mu.Unlock()
}
