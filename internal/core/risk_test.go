package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRiskDormantConfigFlagged(t *testing.T) {
	p := standalone(t)
	// Land a raw config, let it sit dormant for a year, change it again.
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "seed",
		Raws:       map[string][]byte{"legacy/knob.json": []byte(`{"v":1}`)},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatal(rep.Err)
	}
	p.clock.Advance(365 * 24 * time.Hour)
	rep = p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "wake the dormant config",
		Raws:       map[string][]byte{"legacy/knob.json": []byte(`{"v":2}`)},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatal(rep.Err)
	}
	found := false
	for _, f := range rep.RiskFlags {
		if strings.Contains(f, "dormant") {
			found = true
		}
	}
	if !found {
		t.Errorf("RiskFlags = %v, want dormant-config flag", rep.RiskFlags)
	}
	// The flag is advisory: the change still landed. And it is visible on
	// the review diff.
	d, err := p.Review.Get(rep.DiffID)
	if err != nil {
		t.Fatal(err)
	}
	hasComment := false
	for _, c := range d.Comments {
		if strings.Contains(c, "risk-advisor") && strings.Contains(c, "dormant") {
			hasComment = true
		}
	}
	if !hasComment {
		t.Errorf("review comments = %v", d.Comments)
	}
}

func TestRiskUnusualSizeFlagged(t *testing.T) {
	p := standalone(t)
	// History of tiny updates...
	for i := 0; i < 6; i++ {
		rep := p.Submit(&ChangeRequest{
			Author: "alice", Reviewer: "bob", Title: "small tweak",
			Raws:       map[string][]byte{"app/knob.json": []byte(fmt.Sprintf(`{"v":%d}`, i))},
			SkipCanary: true,
		})
		if !rep.OK() {
			t.Fatal(rep.Err)
		}
		p.clock.Advance(24 * time.Hour)
	}
	// ...then a 100-line rewrite.
	var big strings.Builder
	big.WriteString("{\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&big, "  \"k%d\": %d,\n", i, i)
	}
	big.WriteString("  \"v\": 99\n}\n")
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "huge rewrite",
		Raws:       map[string][]byte{"app/knob.json": []byte(big.String())},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatal(rep.Err)
	}
	found := false
	for _, f := range rep.RiskFlags {
		if strings.Contains(f, "unusually-large") {
			found = true
		}
	}
	if !found {
		t.Errorf("RiskFlags = %v, want unusually-large flag", rep.RiskFlags)
	}
}

func TestRiskFirstTimeAuthorFlagged(t *testing.T) {
	p := standalone(t)
	for i := 0; i < 4; i++ {
		rep := p.Submit(&ChangeRequest{
			Author: "alice", Reviewer: "bob", Title: "tweak",
			Raws:       map[string][]byte{"app/owned.json": []byte(fmt.Sprintf(`{"v":%d}`, i))},
			SkipCanary: true,
		})
		if !rep.OK() {
			t.Fatal(rep.Err)
		}
	}
	rep := p.Submit(&ChangeRequest{
		Author: "mallory", Reviewer: "bob", Title: "drive-by edit",
		Raws:       map[string][]byte{"app/owned.json": []byte(`{"v":9}`)},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatal(rep.Err)
	}
	found := false
	for _, f := range rep.RiskFlags {
		if strings.Contains(f, "first-time-author") {
			found = true
		}
	}
	if !found {
		t.Errorf("RiskFlags = %v, want first-time-author flag", rep.RiskFlags)
	}
}

func TestRiskNoFlagsOnNormalFlow(t *testing.T) {
	p := standalone(t)
	rep := p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "new config",
		Raws:       map[string][]byte{"app/new.json": []byte(`{"v":1}`)},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatal(rep.Err)
	}
	if len(rep.RiskFlags) != 0 {
		t.Errorf("new config flagged: %v", rep.RiskFlags)
	}
	rep = p.Submit(&ChangeRequest{
		Author: "alice", Reviewer: "bob", Title: "routine tweak",
		Raws:       map[string][]byte{"app/new.json": []byte(`{"v":2}`)},
		SkipCanary: true,
	})
	if !rep.OK() {
		t.Fatal(rep.Err)
	}
	if len(rep.RiskFlags) != 0 {
		t.Errorf("routine update flagged: %v", rep.RiskFlags)
	}
}

// TestRiskFlagOrderStable: the flags of a change that touches several paths
// follow the paths sorted, not the map the paths were gathered in.
func TestRiskFlagOrderStable(t *testing.T) {
	flagsOf := func() []string {
		p := standalone(t)
		var rep *ChangeReport
		for _, v := range []string{`{"v":1}`, `{"v":2}`} {
			rep = p.Submit(&ChangeRequest{
				Author: "alice", Reviewer: "bob", Title: "two knobs",
				Raws:       map[string][]byte{"a/knob.json": []byte(v), "b/knob.json": []byte(v)},
				SkipCanary: true,
			})
			if !rep.OK() {
				t.Fatal(rep.Err)
			}
			p.clock.Advance(365 * 24 * time.Hour)
		}
		return rep.RiskFlags
	}
	first := flagsOf()
	if len(first) != 2 || !strings.Contains(first[0], "a/knob.json") || !strings.Contains(first[1], "b/knob.json") {
		t.Fatalf("RiskFlags = %v, want one dormant flag per path, a/ before b/", first)
	}
	for i := 1; i < 20; i++ {
		if got := flagsOf(); !slices.Equal(got, first) {
			t.Fatalf("pipeline %d: RiskFlags = %v, pipeline 0 had %v", i, got, first)
		}
	}
}
