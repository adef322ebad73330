package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
)

// delta subtracts a counter snapshot from a later one.
func delta(after, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// heapObjects is the cumulative count of heap objects allocated by the
// process. Unlike runtime.ReadMemStats it does not stop the world, so it can
// be read at every span boundary.
func heapObjects() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// digest fingerprints a sample list bit for bit: two runs of one seed must
// agree on it exactly.
func digest(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x/%d", h.Sum64(), len(xs))
}
