package faultinject

import (
	"testing"
	"time"

	"configerator/internal/cluster"
	"configerator/internal/core"
	"configerator/internal/obs"
	"configerator/internal/simnet"
)

func newCampaign(t *testing.T, seed uint64) *Campaign {
	t.Helper()
	f := cluster.New(cluster.SmallConfig(15, seed)) // 60 servers
	f.Net.RunFor(10 * time.Second)
	if f.Ensemble.Leader() == "" {
		t.Fatal("no leader")
	}
	p := core.New(core.Options{Fleet: f, CanaryPhase1: 2, CanaryPhase2: 30})
	c := NewCampaign(p, WithSeed(seed))
	if err := c.Seed(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLayersCatchTheirClasses(t *testing.T) {
	c := newCampaign(t, 1)
	outcomes := c.Run(40)
	s := Summarize(outcomes)
	if s.Total != 40 {
		t.Fatalf("Total = %d", s.Total)
	}
	// The validator layer only ever fires for Type I.
	for _, o := range outcomes {
		if o.CaughtBy == CaughtByValidator && o.Type != TypeI {
			t.Errorf("validator caught %v", o.Type)
		}
		if o.CaughtBy == CaughtByCI && o.Type != TypeI {
			t.Errorf("CI caught %v", o.Type)
		}
		// Load errors are invisible at 20 servers: when canary catches a
		// Type II it must be phase 2.
		if o.Type == TypeII && o.CaughtBy == CaughtByCanary1 {
			t.Errorf("phase 1 caught a load error (should be invisible at small scale)")
		}
		// Type III passes validators and CI by construction.
		if o.Type == TypeIII && (o.CaughtBy == CaughtByValidator || o.CaughtBy == CaughtByCI) {
			t.Errorf("static layer caught a valid config (Type III): %v", o.CaughtBy)
		}
	}
	if s.ByLayer[CaughtByValidator] == 0 {
		t.Error("no validator catches at all")
	}
	if s.ByLayer[CaughtByCanary2] == 0 {
		t.Error("no cluster-scale canary catches at all")
	}
}

func TestNonBypassedVisibleErrorsAlwaysCaught(t *testing.T) {
	c := newCampaign(t, 2)
	outcomes := c.Run(40)
	for _, o := range outcomes {
		if !o.Bypassed && o.CaughtBy == Escaped {
			t.Errorf("non-bypassed %v (%s) escaped the full pipeline", o.Type, o.Kind)
		}
	}
}

func TestEscapeMixMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	c := newCampaign(t, 3)
	outcomes := c.Run(150)
	s := Summarize(outcomes)
	total := s.Escapes[TypeI] + s.Escapes[TypeII] + s.Escapes[TypeIII]
	if total < 15 {
		t.Fatalf("too few escapes (%d) to compare mix", total)
	}
	// §6.4: incidents split 42% / 36% / 22%. Synthetic sampling noise on
	// ~30 escapes is large; assert the shape within ±0.15.
	check := func(tpe ErrorType, want float64) {
		got := s.EscapeMix[tpe]
		if got < want-0.15 || got > want+0.15 {
			t.Errorf("%v escape share = %.2f, want %.2f ± 0.15", tpe, got, want)
		}
	}
	check(TypeI, 0.42)
	check(TypeII, 0.36)
	check(TypeIII, 0.22)
	if s.EscapeMix[TypeIII] >= s.EscapeMix[TypeI] {
		t.Errorf("Type III should be the smallest slice: %+v", s.EscapeMix)
	}
}

// TestInfraPlanComposes runs a pipeline-level error campaign with an
// infra-level fault plan scheduled underneath it: the pipeline still
// classifies every injection (the ensemble tolerates an observer crash and
// a transient link cut), and every scripted infra fault is mirrored into
// the obs counters.
func TestInfraPlanComposes(t *testing.T) {
	reg := obs.New()
	cfg := cluster.SmallConfig(15, 4)
	cfg.Obs = reg
	f := cluster.New(cfg)
	f.Net.RunFor(10 * time.Second)
	if f.Ensemble.Leader() == "" {
		t.Fatal("no leader")
	}
	p := core.New(core.Options{Fleet: f, CanaryPhase1: 2, CanaryPhase2: 30})

	cl := f.ClusterNames()[0]
	victim := f.Observers(cl)[0]
	peer := f.Observers(cl)[1]
	plan := simnet.NewFaultPlan(
		simnet.WithCrash(2*time.Second, victim),
		simnet.WithPartitionOneWay(5*time.Second, victim, peer),
		simnet.WithHealOneWay(20*time.Second, victim, peer),
		simnet.WithRestart(40*time.Second, victim),
	)
	c := NewCampaign(p, WithSeed(4), WithInfraPlan(plan))
	if err := c.Seed(); err != nil {
		t.Fatal(err)
	}
	outcomes := c.Run(10)
	f.Net.RunFor(60 * time.Second) // let the tail of the plan fire
	for _, o := range outcomes {
		if o.CaughtBy == "" {
			t.Errorf("outcome %d unclassified under infra faults", o.Seq)
		}
	}
	if plan.Fired() != plan.Len() {
		t.Fatalf("infra plan fired %d of %d events", plan.Fired(), plan.Len())
	}
	if got := reg.Counters().Get("fault.injected"); got != int64(plan.Len()) {
		t.Errorf("fault.injected = %d, want %d", got, plan.Len())
	}
}

func TestSummarize(t *testing.T) {
	outcomes := []Outcome{
		{Type: TypeI, CaughtBy: CaughtByValidator},
		{Type: TypeI, CaughtBy: Escaped},
		{Type: TypeII, CaughtBy: CaughtByCanary2},
		{Type: TypeIII, CaughtBy: Escaped},
	}
	s := Summarize(outcomes)
	if s.ByLayer[Escaped] != 2 || s.ByType[TypeI] != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.EscapeMix[TypeI] != 0.5 || s.EscapeMix[TypeIII] != 0.5 {
		t.Errorf("EscapeMix = %+v", s.EscapeMix)
	}
}

func TestErrorTypeString(t *testing.T) {
	if TypeI.String() == "unknown" || TypeII.String() == "unknown" || TypeIII.String() == "unknown" {
		t.Error("ErrorType.String broken")
	}
}
