package vcs

import (
	"sort"
	"strings"
)

// RepoSet serves a partitioned global namespace over multiple repositories
// (§3.6): files under different path prefixes (e.g. "feed/" and "tao/") are
// served by different repositories that accept commits concurrently. A
// metadata table maps prefixes to repositories; migrating files to a new
// repository only requires updating that table.
type RepoSet struct {
	// routes maps a path prefix (without trailing slash) to a repository.
	routes map[string]*Repository
	// defaultRepo receives paths that match no prefix.
	defaultRepo *Repository
	// ordered prefixes, longest first, for longest-prefix matching.
	prefixes []string
}

// NewRepoSet returns a set with a default repository for unrouted paths.
func NewRepoSet(defaultName string) *RepoSet {
	return &RepoSet{
		routes:      make(map[string]*Repository),
		defaultRepo: NewRepository(defaultName),
	}
}

// AddRepo creates (or reuses) a repository serving the given path prefix.
// Adding repositories incrementally is the paper's scaling lever for commit
// throughput.
func (s *RepoSet) AddRepo(prefix string) *Repository {
	prefix = strings.TrimSuffix(prefix, "/")
	if r, ok := s.routes[prefix]; ok {
		return r
	}
	r := NewRepository(prefix)
	s.routes[prefix] = r
	s.prefixes = append(s.prefixes, prefix)
	sort.Slice(s.prefixes, func(i, j int) bool { return len(s.prefixes[i]) > len(s.prefixes[j]) })
	return r
}

// Route returns the repository responsible for path (longest prefix wins).
func (s *RepoSet) Route(path string) *Repository {
	for _, p := range s.prefixes {
		if strings.HasPrefix(path, p+"/") || path == p {
			return s.routes[p]
		}
	}
	return s.defaultRepo
}

// Repos returns all repositories in the set (default last), for iteration.
func (s *RepoSet) Repos() []*Repository {
	out := make([]*Repository, 0, len(s.prefixes)+1)
	for _, p := range s.prefixes {
		out = append(out, s.routes[p])
	}
	return append(out, s.defaultRepo)
}

// ReadFile reads a path through the routing table.
func (s *RepoSet) ReadFile(path string) ([]byte, error) {
	return s.Route(path).ReadFile(path)
}

// SplitDiff partitions a diff's changes by owning repository. Cross-repo
// diffs are legal (cross-repository dependency is supported); each shard
// lands independently in its owner, mirroring the per-repository landing
// strips of §3.6.
func (s *RepoSet) SplitDiff(d *Diff) map[*Repository]*Diff {
	out := make(map[*Repository]*Diff)
	for _, c := range d.Changes {
		repo := s.Route(c.Path)
		shard, ok := out[repo]
		if !ok {
			shard = &Diff{Base: repo.Head(), Author: d.Author, Message: d.Message}
			out[repo] = shard
		}
		shard.Changes = append(shard.Changes, c)
	}
	return out
}
