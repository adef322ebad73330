package laser

import "testing"

func TestGetSet(t *testing.T) {
	s := NewStore()
	s.Set("k", 1, 0.7)
	v, ok := s.Get("k", 1)
	if !ok || v != 0.7 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if _, ok := s.Get("k", 2); ok {
		t.Fatal("another user's key found")
	}
	if _, ok := s.Get("missing", 1); ok {
		t.Fatal("another project's key found")
	}
	s.Set("k", 1, 0.2) // a newer score overwrites
	if v, _ := s.Get("k", 1); v != 0.2 {
		t.Fatalf("after overwrite Get = %v", v)
	}
	if got := s.Gets.Load(); got != 4 {
		t.Errorf("Gets = %d", got)
	}
}
