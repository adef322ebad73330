package blob

import (
	"fmt"
	"testing"
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
	b, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseManifest(b)
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
		{Name: "m", Version: 1, Chunks: []Ref{{Digest: 1, Size: 0}}}, // zero-size chunk
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

// FuzzParseManifest: every agent decodes manifests from bytes the registry
// serves. The decoder must not panic, and a manifest it accepts is valid and
// survives Encode → ParseManifest with its Digest unchanged. The corpus
// under testdata/fuzz holds SyntheticPackage manifests and malformed ones.
func FuzzParseManifest(f *testing.F) {
	good, err := mkManifest("model", 1, mkChunk("a", 10), mkChunk("b", 20)).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted %+v fails Validate: %v", m, err)
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted %+v does not encode: %v", m, err)
		}
		again, err := ParseManifest(enc)
		if err != nil || again.Digest() != m.Digest() {
			t.Fatalf("Encode → Parse: %+v, %v; want digest %s", again, err, m.Digest())
		}
	})
}
