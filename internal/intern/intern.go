// Package intern is a process-global string intern table for config paths.
//
// At fleet scale every layer of the distribution tree keys its state by
// config path: the Zeus data tree, every observer's replica and watch
// table, every proxy's snapshot and disk cache, and every client's
// subscription set. Without interning, a simulation of O(nodes) proxies
// each tracking O(paths) configs holds O(nodes × paths) copies of the same
// byte sequences — the paths outweigh the configs. Interning collapses
// each distinct path to one shared immutable string: the first writer
// pays a table insert, every later holder shares the same backing bytes.
//
// The table is sharded to keep write contention negligible, and the read
// (already-interned) path takes only a shard RLock and a map lookup — no
// allocation, so it is safe to call from hot paths. Strings are never
// evicted: config namespaces are small and long-lived by design (the
// paper's repository holds O(10^4–10^5) paths for the whole site).
package intern

import "sync"

const shardCount = 64 // power of two; FNV-1a low bits pick the shard

type shard struct {
	mu sync.RWMutex
	m  map[string]string
}

var shards [shardCount]shard

func init() {
	for i := range shards {
		shards[i].m = make(map[string]string)
	}
}

// FNV-1a over the string's bytes, inlined so shard selection is
// allocation-free (matches vcs.HashBytes; duplicated here to keep intern
// dependency-free).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Path returns the canonical shared instance of s, inserting it on first
// sight. The returned string is equal to s and must be treated as
// immutable (strings are). Safe for concurrent use.
func Path(s string) string {
	if s == "" {
		return ""
	}
	sh := &shards[hashString(s)&(shardCount-1)]
	sh.mu.RLock()
	v, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	sh.mu.Lock()
	// Re-check under the write lock: another goroutine may have inserted
	// between the RUnlock and the Lock.
	if v, ok = sh.m[s]; !ok {
		// Clone the bytes so the table never pins a caller's larger
		// backing array (paths often arrive as substrings of messages).
		v = string(append([]byte(nil), s...))
		sh.m[s] = v
	}
	sh.mu.Unlock()
	return v
}
