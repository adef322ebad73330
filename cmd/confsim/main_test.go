package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDemoOutputRepeats: the demo prints only simulated quantities, so two
// runs on one seed are byte-identical — including the per-stage timings,
// which are printed in pipeline order rather than by ranging over the map.
func TestDemoOutputRepeats(t *testing.T) {
	var first bytes.Buffer
	run(&first, 15, 1)
	if !strings.Contains(first.String(), "commit=") || !strings.Contains(first.String(), "propagate=") {
		t.Fatalf("no stage timings in the report:\n%s", first.String())
	}
	for i := 1; i < 8; i++ {
		var again bytes.Buffer
		run(&again, 15, 1)
		if again.String() != first.String() {
			t.Fatalf("run %d differs from run 0:\n%s\nrun 0:\n%s", i, again.String(), first.String())
		}
	}
}
