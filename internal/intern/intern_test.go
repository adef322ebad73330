package intern

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// sdata reports the pointer to a string's backing bytes.
func sdata(s string) uintptr {
	return (*(*struct {
		data uintptr
		len  int
	})(unsafe.Pointer(&s))).data
}

func TestPathCanonicalizes(t *testing.T) {
	// Build two equal strings with distinct backing arrays.
	a := string([]byte("/configs/intern/app.json"))
	b := string([]byte("/configs/intern/app.json"))
	if sdata(a) == sdata(b) {
		t.Skip("runtime deduplicated the test inputs")
	}
	ia, ib := Path(a), Path(b)
	if ia != a || ib != b {
		t.Fatalf("interned strings differ in value: %q %q", ia, ib)
	}
	if sdata(ia) != sdata(ib) {
		t.Errorf("Path returned two backing arrays for equal strings")
	}
}

func TestPathEmpty(t *testing.T) {
	if Path("") != "" {
		t.Fatal("empty string must intern to itself")
	}
}

// TestPathWarmZeroAlloc: interning an already-known string must not
// allocate — it runs on the proxy update path for every event.
func TestPathWarmZeroAlloc(t *testing.T) {
	s := string([]byte("/configs/intern/warm.json"))
	Path(s)
	allocs := testing.AllocsPerRun(100, func() {
		if Path(s) == "" {
			t.Fatal("lost interned string")
		}
	})
	if allocs != 0 {
		t.Errorf("warm Path allocates %.1f per run, want 0", allocs)
	}
}

func TestPathConcurrent(t *testing.T) {
	before := size()
	const goroutines = 8
	const paths = 64
	var wg sync.WaitGroup
	out := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]string, paths)
			for i := 0; i < paths; i++ {
				got[i] = Path(fmt.Sprintf("/configs/intern/conc-%d.json", i))
			}
			out[g] = got
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range out[g] {
			if sdata(out[g][i]) != sdata(out[0][i]) {
				t.Fatalf("goroutine %d path %d got a different canonical instance", g, i)
			}
		}
	}
	if grown := size() - before; grown != paths {
		t.Errorf("table grew by %d, want %d", grown, paths)
	}
}

// size counts the distinct interned strings.
func size() int {
	n := 0
	for i := range shards {
		sh := &shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
