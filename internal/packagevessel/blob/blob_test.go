package blob

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"configerator/internal/stats"
)

func mkChunk(s string, logical int) *Chunk { return NewChunk([]byte(s), logical) }

func mkManifest(name string, version int64, chunks ...*Chunk) Manifest {
	m := Manifest{Name: name, Version: version}
	for _, c := range chunks {
		m.Chunks = append(m.Chunks, Ref{Digest: c.Digest(), Size: c.Size()})
	}
	return m
}

func TestDigestRoundTrip(t *testing.T) {
	d := DigestOf([]byte("hello"))
	got, err := ParseDigest(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip %s != %s", got, d)
	}
	if len(d.String()) != 16 {
		t.Errorf("digest string %q not 16 hex chars", d.String())
	}
	for _, bad := range []string{
		"xyz",
		"000000000000000g", // non-hex digit
		" 00000000000000f", // leading space
		"0x0000000000000f", // 0x prefix
		"00000000000000 1", // inner space
		"000000000000000F", // uppercase: String never prints it
	} {
		if d, err := ParseDigest(bad); err == nil {
			t.Errorf("ParseDigest(%q) = %s, want an error", bad, d)
		}
	}
}

func TestChunkLogicalSize(t *testing.T) {
	c := mkChunk("abc", 1<<20)
	if c.Size() != 1<<20 || len(c.Data()) != 3 {
		t.Errorf("size=%d len=%d", c.Size(), len(c.Data()))
	}
	if full := mkChunk("abc", 0); full.Size() != 3 {
		t.Errorf("full-fidelity size = %d", full.Size())
	}
	if c.Digest() != DigestOf([]byte("abc")) {
		t.Error("digest covers data, not logical size")
	}
}

func TestManifestEncodeParse(t *testing.T) {
	m := mkManifest("model", 3, mkChunk("a", 100), mkChunk("b", 100), mkChunk("c", 50))
	got, err := ParseManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != "model@3" || got.NumChunks() != 3 || got.Size() != 250 {
		t.Errorf("parsed %+v", got)
	}
	if got.Digest() != m.Digest() {
		t.Error("digest not stable across encode/parse")
	}
}

func TestManifestValidation(t *testing.T) {
	ok := mkManifest("m", 1, mkChunk("a", 10))
	bad := []Manifest{
		{},                       // no name
		{Name: "m", Version: -1}, // negative version
		{Name: "m", Version: 1},  // no chunks
		{Name: "m", Version: 1, Chunks: []Ref{{Digest: 1, Size: 0}}},     // zero-size chunk
		{Name: "m\xff", Version: 1, Chunks: []Ref{{Digest: 1, Size: 1}}}, // name not UTF-8
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad manifest %d accepted", i)
		}
	}
}

func TestStoreDedup(t *testing.T) {
	s := NewStore()
	c := mkChunk("shared", 1000)
	if !s.Put(c) {
		t.Fatal("first Put reported dedup")
	}
	if s.Put(mkChunk("shared", 1000)) {
		t.Fatal("second Put of identical content not deduped")
	}
	if st := s.Stats(); st.Chunks != 1 || st.LogicalBytes != 1000 {
		t.Errorf("stats %+v", st)
	}
}

func TestPutVerifiedRejectsCorrupt(t *testing.T) {
	s := NewStore()
	want := DigestOf([]byte("good"))
	if _, err := s.PutVerified([]byte("evil"), 10, want); err == nil {
		t.Fatal("corrupt bytes accepted")
	}
	if s.Has(want) {
		t.Fatal("corrupt bytes stored")
	}
	if _, err := s.PutVerified([]byte("good"), 10, want); err != nil {
		t.Fatal(err)
	}
	if !s.Has(want) {
		t.Fatal("verified bytes not stored")
	}
}

func TestTransferJournalLifecycle(t *testing.T) {
	s := NewStore()
	a, b := mkChunk("a", 10), mkChunk("b", 10)
	m := mkManifest("pkg", 1, a, b)

	s.Begin(m, "registry", "tracker")
	js := s.Journals()
	if len(js) != 1 || js[0].Origin != "registry" || js[0].Coordinator != "tracker" {
		t.Fatalf("journals = %+v", js)
	}
	if got := s.Missing(m); len(got) != 2 {
		t.Fatalf("missing = %v", got)
	}
	s.Put(a)
	if got := s.Missing(m); len(got) != 1 || got[0] != b.Digest() {
		t.Fatalf("missing after one put = %v", got)
	}
	if err := s.Commit(m); err == nil {
		t.Fatal("commit with a hole succeeded")
	}
	s.Put(b)
	if err := s.Commit(m); err != nil {
		t.Fatal(err)
	}
	if len(s.Journals()) != 0 {
		t.Error("journal survived commit")
	}
	if !s.Complete("pkg", 1) {
		t.Error("manifest not recorded complete")
	}
	// Re-Begin of a completed transfer is a no-op.
	s.Begin(m, "registry", "tracker")
	if len(s.Journals()) != 0 {
		t.Error("Begin re-journaled a completed manifest")
	}
}

func TestVerifyDropsCorrupt(t *testing.T) {
	s := NewStore()
	good, bad := mkChunk("good", 10), mkChunk("bad", 10)
	m := mkManifest("pkg", 1, good, bad)
	s.Put(good)
	// Simulate on-disk corruption: store bytes under bad's digest that do
	// not hash to it.
	s.mu.Lock()
	s.chunks[bad.Digest()] = &Chunk{digest: bad.Digest(), data: []byte("flipped"), size: 10}
	s.mu.Unlock()

	present, missing := s.Verify(m)
	if len(present) != 1 || present[0] != good.Digest() {
		t.Errorf("present = %v", present)
	}
	if len(missing) != 1 || missing[0] != bad.Digest() {
		t.Errorf("missing = %v", missing)
	}
	if s.Has(bad.Digest()) {
		t.Error("corrupt chunk not dropped")
	}
}

func TestAbandonKeepsChunks(t *testing.T) {
	s := NewStore()
	c := mkChunk("kept", 10)
	m := mkManifest("pkg", 1, c)
	s.Begin(m, "o", "t")
	s.Put(c)
	s.Abandon(m)
	if len(s.Journals()) != 0 {
		t.Error("journal survived abandon")
	}
	if !s.Has(c.Digest()) {
		t.Error("abandon dropped a content-addressed chunk")
	}
}

func TestDistinctCollapsesRepeats(t *testing.T) {
	c := mkChunk("rep", 10)
	m := Manifest{Name: "p", Version: 1, Chunks: []Ref{
		{Digest: c.Digest(), Size: 10}, {Digest: c.Digest(), Size: 10},
	}}
	if got := m.Distinct(); len(got) != 1 {
		t.Errorf("distinct = %v", got)
	}
	if m.Size() != 20 {
		t.Errorf("size = %d (repeats each count logically)", m.Size())
	}
}

func TestJournalsDeterministicOrder(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"zebra", "alpha", "mid"} {
		s.Begin(mkManifest(name, 1, mkChunk(name, 10)), "o", "t")
	}
	var got []string
	for _, j := range s.Journals() {
		got = append(got, j.Manifest.Name)
	}
	want := fmt.Sprint([]string{"alpha", "mid", "zebra"})
	if fmt.Sprint(got) != want {
		t.Errorf("order %v, want %v", got, want)
	}
}

// randomName draws a name from pieces that exercise every branch of the
// string encoder: plain ASCII, the quote and backslash, the HTML-escaped
// bytes, control bytes with and without short escapes, DEL, multi-byte
// runes, the JavaScript line separators, U+FFFD itself and invalid UTF-8.
func randomName(rng *stats.RNG) string {
	pieces := []string{"model", "a", "Z9", " ", "\"", "\\", "<", ">", "&", "/",
		"\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
		"é", "日本", "🙂", "\u2028", "\u2029", "\ufffd", "\xff", "\xc3", "\xed\xa0\x80"}
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// randomInt draws from the edges and the middle of the signed range.
func randomInt(rng *stats.RNG) int64 {
	switch rng.Intn(6) {
	case 0:
		return []int64{0, 1, -1, 9, 10, -10, 1<<63 - 1, -1 << 63}[rng.Intn(8)]
	case 1:
		return -int64(rng.Uint64() >> rng.Intn(64))
	default:
		return int64(rng.Uint64() >> (1 + rng.Intn(63)))
	}
}

func randomManifest(rng *stats.RNG) Manifest {
	m := Manifest{Name: randomName(rng), Version: randomInt(rng)}
	switch rng.Intn(8) {
	case 0: // nil: encodes as null
	case 1:
		m.Chunks = []Ref{}
	default:
		for n := 1 + rng.Intn(20); n > 0; n-- {
			d := rng.Uint64()
			if rng.Intn(4) == 0 {
				d >>= rng.Intn(64) // small digests too, 0 included
			}
			m.Chunks = append(m.Chunks, Ref{Digest: Digest(d), Size: int(randomInt(rng))})
		}
	}
	return m
}

// TestManifestCodecMatchesJSON: encoding/json is the oracle. Encode is
// json.Marshal byte for byte, and on every canonical encoding — every one
// whose name is valid UTF-8 — the decoder agrees with json.Unmarshal, and
// ParseManifest with json.Unmarshal followed by Validate. A name with
// invalid UTF-8 encodes (as json.Marshal does) but is not canonical: its
// \ufffd decodes to a valid rune, so ParseManifest refuses it.
func TestManifestCodecMatchesJSON(t *testing.T) {
	rng := stats.NewRNG(43)
	for i := 0; i < 5000; i++ {
		m := randomManifest(rng)
		enc := m.Encode()
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("Encode(%+v)\n = %s\nwant %s", m, enc, want)
		}
		if !utf8.ValidString(m.Name) {
			if got, err := ParseManifest(enc); err == nil {
				t.Fatalf("accepted %s as %+v, whose name does not round-trip", enc, got)
			}
			continue
		}
		got, err := decodeManifest(enc)
		var ref Manifest
		if jerr := json.Unmarshal(enc, &ref); jerr != nil || err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("decode %s = %+v, %v; json.Unmarshal = %+v, %v", enc, got, err, ref, jerr)
		}
		parsed, err := ParseManifest(enc)
		if verr := ref.Validate(); (err == nil) != (verr == nil) || (err == nil && !reflect.DeepEqual(parsed, ref)) {
			t.Fatalf("ParseManifest(%s) = %+v, %v; Validate says %v", enc, parsed, err, verr)
		}
	}
}

// TestParseManifestRejectsNonCanonical: bytes that are not what Encode
// writes for any manifest are refused. Most of them json.Unmarshal takes as
// a valid manifest (json says so for each case) — the laxity a manifest's
// one byte form rules out; the others show the decoder is no laxer than
// json.
func TestParseManifestRejectsNonCanonical(t *testing.T) {
	folded, err := os.ReadFile("testdata/fuzz/FuzzParseManifest/folded-duplicate-keys")
	if err != nil {
		t.Fatal(err)
	}
	invalidName, err := json.Marshal(mkManifest("mod\xffel", 1, mkChunk("a", 10)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, in  string
		jsonTakes bool
	}{
		{"folded-duplicate-keys", corpusBytes(t, folded), true},
		{"leading whitespace", ` {"name":"model","version":1,"chunks":[{"digest":1,"size":1}]}`, true},
		{"inner whitespace", `{"name": "model","version":1,"chunks":[{"digest":1,"size":1}]}`, true},
		{"trailing newline", "{\"name\":\"model\",\"version\":1,\"chunks\":[{\"digest\":1,\"size\":1}]}\n", true},
		{"reordered keys", `{"version":1,"name":"model","chunks":[{"digest":1,"size":1}]}`, true},
		{"reordered ref keys", `{"name":"model","version":1,"chunks":[{"size":1,"digest":1}]}`, true},
		{"negative zero", `{"name":"model","version":-0,"chunks":[{"digest":1,"size":1}]}`, true},
		{"escaped letter", `{"name":"mod\u0065l","version":1,"chunks":[{"digest":1,"size":1}]}`, true},
		{"escaped slash", `{"name":"a\/b","version":1,"chunks":[{"digest":1,"size":1}]}`, true},
		{"uppercase hex escape", `{"name":"a\u003Cb","version":1,"chunks":[{"digest":1,"size":1}]}`, true},
		{"unescaped <", `{"name":"a<b","version":1,"chunks":[{"digest":1,"size":1}]}`, true},
		{"invalid UTF-8 name", string(invalidName), true},
		{"leading zero", `{"name":"model","version":01,"chunks":[{"digest":1,"size":1}]}`, false},
		{"exponent", `{"name":"model","version":1e0,"chunks":[{"digest":1,"size":1}]}`, false},
		{"digest overflow", `{"name":"model","version":1,"chunks":[{"digest":18446744073709551616,"size":1}]}`, false},
		{"trailing comma", `{"name":"model","version":1,"chunks":[{"digest":1,"size":1},]}`, false},
	} {
		var ref Manifest
		err := json.Unmarshal([]byte(c.in), &ref)
		if takes := err == nil && ref.Validate() == nil; takes != c.jsonTakes {
			t.Errorf("%s: json.Unmarshal + Validate of %q: %v, %v; the case expects it to take it: %v",
				c.name, c.in, err, ref.Validate(), c.jsonTakes)
		}
		if m, err := ParseManifest([]byte(c.in)); err == nil {
			t.Errorf("%s: ParseManifest(%q) = %+v, want an error", c.name, c.in, m)
		}
	}
}

// corpusBytes decodes a one-value []byte corpus file of the native fuzzer.
func corpusBytes(t *testing.T, file []byte) string {
	t.Helper()
	line := strings.TrimSpace(strings.SplitN(string(file), "\n", 2)[1])
	quoted, ok := strings.CutSuffix(strings.TrimPrefix(line, "[]byte("), ")")
	if !ok {
		t.Fatalf("not a []byte corpus value: %q", line)
	}
	var s string
	if _, err := fmt.Sscanf(quoted, "%q", &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzParseManifest: every agent decodes manifests from bytes the registry
// serves. The decoder must not panic; a manifest it accepts is valid, is
// what json.Unmarshal makes of the same bytes, and re-encodes to exactly
// those bytes. The corpus under testdata/fuzz holds SyntheticPackage
// manifests and malformed ones.
func FuzzParseManifest(f *testing.F) {
	f.Add(mkManifest("model", 1, mkChunk("a", 10), mkChunk("b", 20)).Encode())
	f.Add(mkManifest("a\"<\u2028>\\\x01&\n\u00e9", 1, mkChunk("a", 10)).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted %+v fails Validate: %v", m, err)
		}
		if enc := m.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %q, which encodes as %q", data, enc)
		}
		var ref Manifest
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(ref, m) {
			t.Fatalf("accepted %q as %+v; json.Unmarshal gives %+v, %v", data, m, ref, err)
		}
	})
}
