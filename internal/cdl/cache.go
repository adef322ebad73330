package cdl

// Cache storage for the compilation engine: a content-addressed parse
// cache and a whole-compile result cache keyed by the Merkle hash of the
// root's transitive source closure. Both live behind the Engine mutex;
// entries are immutable once published, so readers share them freely
// across goroutines.

// parseEntry is one cached parse, keyed by (path, source hash). The path
// is part of the key because AST positions embed the file name.
type parseEntry struct {
	mod     *Module
	err     error
	lastUse int64
}

// registeredValidator is a validator statement bound to the environment of
// the module that declared it.
type registeredValidator struct {
	stmt *ValidatorStmt
	env  *Env
}

// resultEntry is one memoized whole-compile result, keyed by the root
// module's closure hash.
type resultEntry struct {
	res     *Result
	closure []string
	lastUse int64
}

// evictOldest removes roughly the least-recently-used quarter of a cache
// map once it exceeds max, returning how many entries were dropped. The
// scan is O(n) but runs only on overflow, which amortizes fine for cache
// maintenance.
func evictOldest[E any](m map[string]E, max int, lastUse func(E) int64, drop func(string)) int {
	if max <= 0 || len(m) <= max {
		return 0
	}
	// Find the cutoff tick below which entries are evicted: collect ticks
	// and take the quartile via a partial selection.
	ticks := make([]int64, 0, len(m))
	for _, e := range m {
		ticks = append(ticks, lastUse(e))
	}
	cutoff := quickselect(ticks, len(ticks)/4)
	dropped := 0
	for k, e := range m {
		if lastUse(e) <= cutoff {
			drop(k)
			dropped++
		}
	}
	return dropped
}

// quickselect returns the k-th smallest element (0-based) of xs, mutating
// xs in place.
func quickselect(xs []int64, k int) int64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}
