package gatekeeper

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExplainGolden pins what `configerator gk explain` prints: for the
// user on file and four variants of them — an employee, one the die lets
// through, one only the last rule matches, one no rule matches — the text
// form, and for the user on file the JSON form. Every explained answer is
// the answer Check gives.
func TestExplainGolden(t *testing.T) {
	dir := filepath.Join("testdata", "explain")
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	spec, err := ParseProjectSpec(read("spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, spec, reg())
	base, err := ParseUser(read("user.json"))
	if err != nil {
		t.Fatal(err)
	}
	users := []*User{base}
	for _, edit := range []func(u *User){
		func(u *User) { u.Employee = true },
		func(u *User) { u.ID = 1064 },
		func(u *User) { u.Country = "BR" },
		func(u *User) { u.AppVersion, u.Platform = 90, "www" },
	} {
		u := *base
		edit(&u)
		users = append(users, &u)
	}
	var text strings.Builder
	for _, u := range users {
		ex := p.Explain(u)
		if ex.Pass != p.Check(u) {
			t.Errorf("user %+v: explained %v, Check says %v", *u, ex.Pass, !ex.Pass)
		}
		text.WriteString(ex.Text() + "\n")
	}
	js, err := json.MarshalIndent(p.Explain(base), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{"want.txt": text.String(), "want.json": string(js) + "\n"} {
		if *update {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want := string(read(name)); got != want {
			t.Errorf("%s differs (run with -update to rewrite):\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
}
