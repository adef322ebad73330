package vcs

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, old, new string) {
	t.Helper()
	d := MakeDelta([]byte(old), []byte(new))
	if d == nil {
		return // caller would ship full content; nothing to verify
	}
	got, err := ApplyDelta([]byte(old), d)
	if err != nil {
		t.Fatalf("ApplyDelta(%q→%q): %v", old, new, err)
	}
	if string(got) != new {
		t.Fatalf("round trip %q→%q produced %q", old, new, got)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	roundTrip(t, `{"a":1,"b":2,"c":3}`, `{"a":1,"b":7,"c":3}`)
	roundTrip(t, "line1\nline2\nline3\n", "line1\nchanged\nline3\n")
	roundTrip(t, strings.Repeat("x", 4096), strings.Repeat("x", 2048)+"Y"+strings.Repeat("x", 2047))
	roundTrip(t, "abc", "abcdef") // pure append
	roundTrip(t, "abcdef", "abc") // pure truncate
	roundTrip(t, "same", "same")  // identical
}

func TestDeltaSmallEditIsSmall(t *testing.T) {
	old := []byte(strings.Repeat("config line ........................\n", 1000))
	new := bytes.Replace(old, []byte("line ....."), []byte("line FLIP!"), 1)
	d := MakeDelta(old, new)
	if d == nil {
		t.Fatal("small edit produced no delta")
	}
	if len(d) > 64 {
		t.Fatalf("delta for a one-line flip is %d bytes", len(d))
	}
	got, err := ApplyDelta(old, d)
	if err != nil || !bytes.Equal(got, new) {
		t.Fatalf("apply failed: %v", err)
	}
}

func TestDeltaFullRewriteDeclines(t *testing.T) {
	// Completely different content: a splice cannot beat the full bytes.
	if d := MakeDelta([]byte("aaaaaaaa"), []byte("zzzzzzzz")); d != nil {
		t.Fatalf("expected nil delta, got %d bytes", len(d))
	}
	// No base at all: always ship full.
	if d := MakeDelta(nil, []byte("fresh")); d != nil {
		t.Fatal("delta against empty base should decline")
	}
}

func TestDeltaWrongBaseDetected(t *testing.T) {
	old := []byte("prefix MIDDLE suffix")
	new := []byte("prefix CHANGED suffix")
	d := MakeDelta(old, new)
	if d == nil {
		t.Fatal("no delta")
	}
	wrong := []byte("x")
	out, err := ApplyDelta(wrong, d)
	if err == nil && HashBytes(out) == HashBytes(new) {
		t.Fatal("delta applied to wrong base reproduced the new content")
	}
}

func TestDeltaMalformed(t *testing.T) {
	if _, err := ApplyDelta([]byte("abc"), []byte{}); err == nil {
		t.Fatal("empty delta accepted")
	}
	if _, err := ApplyDelta([]byte("abc"), []byte{0xff}); err == nil {
		t.Fatal("truncated varint accepted")
	}
	// prefix+suffix longer than base.
	bad := MakeDelta([]byte("aaaaaaaaaaaaaaaa"), []byte("aaaaaaaaaaaaaaaab"))
	if bad == nil {
		t.Skip("no delta to corrupt")
	}
	if _, err := ApplyDelta([]byte("a"), bad); err == nil {
		t.Fatal("out-of-range splice accepted")
	}
}

func TestQuickDeltaRoundTrip(t *testing.T) {
	err := quick.Check(func(old, new []byte) bool {
		d := MakeDelta(old, new)
		if d == nil {
			return true
		}
		if len(d) >= len(new) {
			return false // must be strictly smaller than full
		}
		got, err := ApplyDelta(old, d)
		return err == nil && bytes.Equal(got, new)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestHashBytes(t *testing.T) {
	if HashBytes([]byte("a")) == HashBytes([]byte("b")) {
		t.Fatal("distinct content hashed equal")
	}
	if HashBytes(nil) != HashBytes([]byte{}) {
		t.Fatal("nil and empty must hash equal")
	}
}

// FuzzDeltaRoundTrip: a delta MakeDelta offers is strictly smaller than new
// and applies back to exactly new; ApplyDelta on arbitrary bytes (new doubles
// as the hostile delta) never panics and never returns a slice aliasing old —
// results are shared fleet-wide as immutable content, the base stays the
// caller's.
func FuzzDeltaRoundTrip(f *testing.F) {
	// The corpus — empty and equal sides, deltas that overrun the base, the
	// prefix+suffix sum that wraps uint64 — is in testdata/fuzz.
	f.Add([]byte("rev = 1\ntier = web\n"), []byte("rev = 2\ntier = web\n"))
	f.Fuzz(func(t *testing.T, old, new []byte) {
		if d := MakeDelta(old, new); d != nil {
			if len(d) >= len(new) {
				t.Fatalf("delta of %d bytes offered for %d bytes of content", len(d), len(new))
			}
			got, err := ApplyDelta(old, d)
			if err != nil || !bytes.Equal(got, new) {
				t.Fatalf("round trip: %q, %v", got, err)
			}
		}
		keep := append([]byte(nil), old...)
		out, err := ApplyDelta(old, new)
		if err != nil {
			return
		}
		for i := range out {
			out[i] ^= 0xff
		}
		if !bytes.Equal(old, keep) {
			t.Fatal("ApplyDelta result aliases its base")
		}
	})
}
