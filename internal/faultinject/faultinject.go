// Package faultinject reproduces the configuration-error analysis of
// §6.4. The paper classifies three months of high-impact incidents into:
//
//	Type I  (42%): common config errors — typos, out-of-bound values, bad
//	               references; obvious once spotted.
//	Type II (36%): subtle errors — load-related, failure-induced,
//	               butterfly effects; hard to anticipate.
//	Type III(22%): valid config changes that exposed latent code bugs.
//
// We cannot observe Facebook's incidents, so we measure the same *pipeline
// behaviour* instead: a calibrated mix of injected errors is driven
// through the full Configerator pipeline (compiler + validators →
// Sandcastle → two canary phases → landing) and the harness records which
// defense layer stops each one. Escape paths mirror the paper's reality:
// changes that bypass canary (automation and emergency pushes), engineers
// overriding a canary rejection (the §6.4 anecdote), and load errors whose
// effect is invisible at 20-server scale. The calibration is chosen so the
// injections that DO escape to production split approximately 42/36/22 —
// the paper's incident mix — letting us check which layers would have had
// to improve to change each slice.
package faultinject

import (
	"bytes"
	"fmt"

	"configerator/internal/ci"
	"configerator/internal/core"
	"configerator/internal/simnet"
	"configerator/internal/stats"
)

// ErrorType is the §6.4 incident class.
type ErrorType int

// The three §6.4 classes.
const (
	TypeI ErrorType = iota + 1
	TypeII
	TypeIII
)

// String names the class.
func (t ErrorType) String() string {
	switch t {
	case TypeI:
		return "Type I (common config error)"
	case TypeII:
		return "Type II (subtle config error)"
	case TypeIII:
		return "Type III (valid config exposing code bug)"
	}
	return "unknown"
}

// Layers that can stop an injection.
const (
	CaughtByValidator = "validator"
	CaughtByCI        = "sandcastle-ci"
	CaughtByCanary1   = "canary-phase1"
	CaughtByCanary2   = "canary-phase2"
	Escaped           = "escaped-to-production"
)

// Outcome records one injection's fate.
type Outcome struct {
	Seq      int
	Type     ErrorType
	Kind     string // generator label, e.g. "schema-violation"
	CaughtBy string
	Bypassed bool // the change skipped or overrode canary
}

// Mix calibrates the injection blend. The defaults are tuned so escapes
// split ≈42/36/22 across the three types.
type Mix struct {
	TypeIShare   float64
	TypeIIShare  float64
	TypeIIIShare float64
	// Within Type I: the fraction caught mechanically by the compiler's
	// validators (expressible invariants) and by CI.
	ValidatorCoverage float64
	CICoverage        float64
	// Canary-bypass probabilities (automation/emergency changes that skip
	// canary, §6.6 "empower engineers ... as the safety net" has limits).
	SkipCanaryI   float64
	SkipCanaryII  float64
	SkipCanaryIII float64
	// OverrideIII is the probability a Type III canary rejection is
	// overridden by a human ("it must be a false positive!").
	OverrideIII float64
}

// DefaultMix is the calibrated blend.
func DefaultMix() Mix {
	return Mix{
		TypeIShare: 0.50, TypeIIShare: 0.25, TypeIIIShare: 0.25,
		ValidatorCoverage: 0.60, CICoverage: 0.15,
		SkipCanaryI: 0.55, SkipCanaryII: 0.25,
		SkipCanaryIII: 0.08, OverrideIII: 0.08,
	}
}

// Campaign drives injections through a pipeline.
type Campaign struct {
	p           *core.Pipeline
	rng         *stats.RNG
	mix         Mix
	seq         int
	plan        *simnet.FaultPlan
	planApplied bool
}

// Option configures a Campaign (functional options, matching the simnet
// fault-plan style so pipeline-level and infra-level campaigns compose).
type Option func(*Campaign)

// WithSeed reseeds the campaign's deterministic RNG (default 1).
func WithSeed(seed uint64) Option {
	return func(c *Campaign) { c.rng = stats.NewRNG(seed) }
}

// WithInfraPlan schedules an infrastructure fault plan on the pipeline's
// fleet when the campaign starts: config errors flow through the pipeline
// while observers crash and links partition underneath it.
func WithInfraPlan(plan *simnet.FaultPlan) Option {
	return func(c *Campaign) { c.plan = plan }
}

// NewCampaign builds a campaign over a fleet-attached pipeline, with
// DefaultMix and seed 1 unless overridden by options. The pipeline's
// fleet must subscribe to the target path so the app model reacts to the
// injected configs.
func NewCampaign(p *core.Pipeline, opts ...Option) *Campaign {
	c := &Campaign{p: p, rng: stats.NewRNG(1), mix: DefaultMix()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// schemaSeed installs a schema with a validator, the substrate for
// mechanical Type I catches.
const schemaSeed = `
	schema Quota {
		1: string service;
		2: i64 limit = 100;
	}
	validator Quota(q) {
		assert(q.limit > 0 && q.limit <= 1000000, "limit out of range");
		assert(len(q.service) > 0, "service required");
	}
`

// Seed installs the schema module and the Sandcastle integration test;
// call once before Run.
func (c *Campaign) Seed() error {
	c.p.Sandbox.Register(ci.Test{
		Name: "site-integration",
		Run: func(cs ci.ChangeSet) error {
			for path, data := range cs {
				if bytes.Contains(data, []byte(`"ci_detectable":true`)) {
					return fmt.Errorf("synthetic site test fails under %s", path)
				}
			}
			return nil
		},
	})
	rep := c.p.Submit(&core.ChangeRequest{
		Author: "infra", Reviewer: "bob", Title: "seed quota schema",
		Sources:    map[string][]byte{"lib/quota.cinc": []byte(schemaSeed)},
		SkipCanary: true,
	})
	if !rep.OK() {
		return fmt.Errorf("faultinject: seeding schema: %w", rep.Err)
	}
	return nil
}

// Run injects n errors and returns their outcomes. A composed infra plan
// (WithInfraPlan) is applied to the fleet's network on the first Run.
func (c *Campaign) Run(n int) []Outcome {
	if c.plan != nil && !c.planApplied {
		c.planApplied = true
		c.plan.Apply(c.p.Fleet.Net)
	}
	outcomes := make([]Outcome, 0, n)
	for i := 0; i < n; i++ {
		u := c.rng.Float64()
		var o Outcome
		switch {
		case u < c.mix.TypeIShare:
			o = c.injectTypeI()
		case u < c.mix.TypeIShare+c.mix.TypeIIShare:
			o = c.injectTypeII()
		default:
			o = c.injectTypeIII()
		}
		c.seq++
		o.Seq = c.seq
		outcomes = append(outcomes, o)
	}
	return outcomes
}

// target returns a unique config path per injection so outcomes stay
// independent.
func (c *Campaign) target() string {
	return fmt.Sprintf("apps/inject%04d.json", c.seq)
}

func (c *Campaign) classify(rep *core.ChangeReport, bypassed bool) string {
	if rep.OK() {
		return Escaped
	}
	switch rep.FailedStage {
	case "compile":
		return CaughtByValidator
	case "ci":
		return CaughtByCI
	case "canary":
		if n := len(rep.Canaries); n > 0 && len(rep.Canaries[n-1].Phases) >= 2 {
			return CaughtByCanary2
		}
		return CaughtByCanary1
	}
	return rep.FailedStage
}

// injectTypeI: a common config error. Most are expressible as schema or
// validator violations (the compiler stops them); some are CI-detectable
// integration breaks; the rest are typos in raw configs with no schema —
// obvious in production (error-rate spike) but only if a canary runs.
func (c *Campaign) injectTypeI() Outcome {
	o := Outcome{Type: TypeI}
	u := c.rng.Float64()
	switch {
	case u < c.mix.ValidatorCoverage:
		o.Kind = "schema-violation"
		src := fmt.Sprintf(`import "lib/quota.cinc"; export Quota{service: "svc%d", limit: -5};`, c.seq)
		rep := c.p.Submit(&core.ChangeRequest{
			Author: "eng", Reviewer: "bob", Title: "bad quota",
			Sources:    map[string][]byte{fmt.Sprintf("apps/quota%04d.cconf", c.seq): []byte(src)},
			SkipCanary: true,
		})
		o.CaughtBy = c.classify(rep, false)
	case u < c.mix.ValidatorCoverage+c.mix.CICoverage:
		o.Kind = "integration-break"
		rep := c.p.Submit(&core.ChangeRequest{
			Author: "eng", Reviewer: "bob", Title: "breaks site tests",
			Raws:       map[string][]byte{c.target(): []byte(`{"ci_detectable":true}`)},
			SkipCanary: true,
		})
		o.CaughtBy = c.classify(rep, false)
	default:
		o.Kind = "raw-typo"
		skip := c.rng.Bool(c.mix.SkipCanaryI)
		o.Bypassed = skip
		rep := c.p.Submit(&core.ChangeRequest{
			Author: "eng", Reviewer: "bob", Title: "typo'd raw config",
			Raws: map[string][]byte{c.target(): []byte(
				`{"cluster":"web-east-typo","_fault":{"type":"error","intensity":0.8}}`)},
			SkipCanary: skip,
		})
		o.CaughtBy = c.classify(rep, skip)
	}
	return o
}

// injectTypeII: a load-dependent error — harmless on 20 servers, a
// latency disaster fleet-wide. Only the cluster-scale canary phase can
// see it, and only when the change does not bypass canary entirely.
func (c *Campaign) injectTypeII() Outcome {
	o := Outcome{Type: TypeII, Kind: "load-amplification"}
	skip := c.rng.Bool(c.mix.SkipCanaryII)
	o.Bypassed = skip
	rep := c.p.Submit(&core.ChangeRequest{
		Author: "eng", Reviewer: "bob", Title: "rare code path hits backend",
		Raws: map[string][]byte{c.target(): []byte(
			`{"prefetch":"aggressive","_fault":{"type":"load","intensity":1.0}}`)},
		SkipCanary: skip,
	})
	o.CaughtBy = c.classify(rep, skip)
	return o
}

// injectTypeIII: a perfectly valid config that exercises a buggy code
// path (crash or log spew). Validators and CI have nothing to object to;
// canary catches it unless skipped or overridden by a human.
func (c *Campaign) injectTypeIII() Outcome {
	o := Outcome{Type: TypeIII}
	kind := "latent-crash"
	fault := `{"new_path":true,"_fault":{"type":"crash","intensity":0.6}}`
	if c.rng.Bool(0.5) {
		kind = "log-spew"
		fault = `{"new_path":true,"_fault":{"type":"log_spew","intensity":0.9}}`
	}
	o.Kind = kind
	skip := c.rng.Bool(c.mix.SkipCanaryIII)
	override := !skip && c.rng.Bool(c.mix.OverrideIII)
	o.Bypassed = skip || override
	rep := c.p.Submit(&core.ChangeRequest{
		Author: "eng", Reviewer: "bob", Title: "innocent-looking change",
		Raws:           map[string][]byte{c.target(): []byte(fault)},
		SkipCanary:     skip,
		OverrideCanary: override,
	})
	o.CaughtBy = c.classify(rep, o.Bypassed)
	return o
}

// Summary aggregates outcomes the way §6.4 reports them.
type Summary struct {
	Total     int
	ByLayer   map[string]int
	ByType    map[ErrorType]int
	Escapes   map[ErrorType]int
	EscapeMix map[ErrorType]float64 // escaped share per type (sums to 1)
}

// Summarize builds the aggregate.
func Summarize(outcomes []Outcome) Summary {
	s := Summary{
		Total:     len(outcomes),
		ByLayer:   make(map[string]int),
		ByType:    make(map[ErrorType]int),
		Escapes:   make(map[ErrorType]int),
		EscapeMix: make(map[ErrorType]float64),
	}
	escaped := 0
	for _, o := range outcomes {
		s.ByLayer[o.CaughtBy]++
		s.ByType[o.Type]++
		if o.CaughtBy == Escaped {
			s.Escapes[o.Type]++
			escaped++
		}
	}
	if escaped > 0 {
		for t, n := range s.Escapes {
			s.EscapeMix[t] = float64(n) / float64(escaped)
		}
	}
	return s
}
