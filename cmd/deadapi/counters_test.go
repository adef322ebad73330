package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestWriteOnlyNamesFixture runs the write-only check over the module in
// testdata/writeonly, which plants two names that internal/comp writes and
// nothing reads beside four that are read (by a test, through a constant
// from another package, inside the argument of an atomic's Add) or built at
// run time, and requires exactly the planted two back.
func TestWriteOnlyNamesFixture(t *testing.T) {
	_, self, _, _ := runtime.Caller(0)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(filepath.Dir(self), "testdata", "writeonly")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	l, err := load()
	if err != nil {
		t.Fatal(err)
	}
	bad, err := l.writeOnlyNames()
	if err != nil {
		t.Fatal(err)
	}
	const suffix = " is written to the obs registry and read nowhere; delete the write, or read it"
	want := []string{
		`internal/comp/comp.go:12: "comp.unread"` + suffix,
		`internal/comp/comp.go:14: "comp.hist.unread"` + suffix,
	}
	if strings.Join(bad, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(bad, "\n"), strings.Join(want, "\n"))
	}
}
