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
	s.Delete("k", 1)
	if _, ok := s.Get("k", 1); ok {
		t.Fatal("deleted key found")
	}
	if got := s.Gets.Load(); got != 4 {
		t.Errorf("Gets = %d", got)
	}
}

func TestBatchJobRefreshesAllUsers(t *testing.T) {
	s := NewStore()
	job := BatchJob{Project: "P", Compute: func(id int64) float64 { return float64(id) }}
	if n := job.Run(s, []int64{1, 2, 3}); n != 3 {
		t.Fatalf("loaded %d", n)
	}
	if v, _ := s.Get("P", 2); v != 2 {
		t.Errorf("P-2 = %v", v)
	}
	// Re-running refreshes.
	job.Compute = func(id int64) float64 { return float64(id) * 10 }
	job.Run(s, []int64{1, 2, 3})
	if v, _ := s.Get("P", 2); v != 20 {
		t.Errorf("after rerun P-2 = %v", v)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStreamFeeder(t *testing.T) {
	s := NewStore()
	f := NewStreamFeeder("Topics", s)
	f.Feed(7, 0.9)
	f.Feed(7, 0.2) // newer event overwrites
	if v, _ := s.Get("Topics", 7); v != 0.2 {
		t.Errorf("score = %v", v)
	}
	if f.Events != 2 {
		t.Errorf("Events = %d", f.Events)
	}
}
