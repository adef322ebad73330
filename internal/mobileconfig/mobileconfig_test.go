package mobileconfig

import (
	"fmt"
	"testing"
	"time"

	"configerator/internal/gatekeeper"
	"configerator/internal/simnet"
	"configerator/internal/vclock"
)

func mkUser(id int64) *gatekeeper.User {
	return &gatekeeper.User{ID: id, Platform: "ios", DeviceModel: "iPhone6", Now: vclock.Epoch}
}

func testMapping() *Mapping {
	return &Mapping{
		Config: "MY_CONFIG",
		Fields: map[string]FieldBinding{
			"FEATURE_X":   {Backend: BackendGatekeeper, Project: "ProjX"},
			"MAX_RETRIES": {Backend: BackendConstant, Value: 3.0},
			"VOIP_ECHO": {Backend: BackendExperiment, Project: "ECHO", Variants: []Variant{
				{Name: "low", Weight: 1, Value: 0.1},
				{Name: "high", Weight: 1, Value: 0.9},
			}},
		},
	}
}

func newTranslator(t *testing.T) *Translator {
	t.Helper()
	reg := gatekeeper.NewRegistry(nil)
	rt := gatekeeper.NewRuntime(reg)
	spec := &gatekeeper.ProjectSpec{Project: "ProjX", Rules: []gatekeeper.RuleSpec{{
		Restraints:      []gatekeeper.RestraintSpec{{Name: "device_model", Params: gatekeeper.Params{"in": []string{"iPhone6"}}}},
		PassProbability: 1.0,
	}}}
	if err := rt.Load(spec.Encode()); err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(rt, nil)
	if err := tr.LoadMapping(testMapping().Encode()); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTranslateAllBackends(t *testing.T) {
	tr := newTranslator(t)
	h := tr.RegisterSchema([]string{"FEATURE_X", "MAX_RETRIES", "VOIP_ECHO"})
	values, err := tr.Translate(h, mkUser(42))
	if err != nil {
		t.Fatal(err)
	}
	if values["FEATURE_X"] != true {
		t.Errorf("FEATURE_X = %v", values["FEATURE_X"])
	}
	if values["MAX_RETRIES"] != 3.0 {
		t.Errorf("MAX_RETRIES = %v", values["MAX_RETRIES"])
	}
	if v := values["VOIP_ECHO"]; v != 0.1 && v != 0.9 {
		t.Errorf("VOIP_ECHO = %v", v)
	}
}

func TestExperimentDeterministicAndBalanced(t *testing.T) {
	tr := newTranslator(t)
	h := tr.RegisterSchema([]string{"VOIP_ECHO"})
	low := 0
	for id := int64(0); id < 4000; id++ {
		v1, _ := tr.Translate(h, mkUser(id))
		v2, _ := tr.Translate(h, mkUser(id))
		if v1["VOIP_ECHO"] != v2["VOIP_ECHO"] {
			t.Fatalf("variant assignment not stable for user %d", id)
		}
		if v1["VOIP_ECHO"] == 0.1 {
			low++
		}
	}
	frac := float64(low) / 4000
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("low-variant fraction = %.3f, want ~0.5", frac)
	}
}

func TestLegacySchemaGetsSubset(t *testing.T) {
	tr := newTranslator(t)
	oldHash := tr.RegisterSchema([]string{"MAX_RETRIES"}) // v1 app knows one field
	newHash := tr.RegisterSchema([]string{"MAX_RETRIES", "FEATURE_X", "VOIP_ECHO"})
	oldValues, err := tr.Translate(oldHash, mkUser(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(oldValues) != 1 {
		t.Errorf("legacy app got %d fields, want 1", len(oldValues))
	}
	newValues, _ := tr.Translate(newHash, mkUser(1))
	if len(newValues) != 3 {
		t.Errorf("new app got %d fields, want 3", len(newValues))
	}
}

func TestUnknownSchemaErrors(t *testing.T) {
	tr := newTranslator(t)
	if _, err := tr.Translate(0xdead, mkUser(1)); err == nil {
		t.Fatal("unknown schema should error")
	}
}

func TestRemapFieldToConstant(t *testing.T) {
	// The paper's migration story: after the experiment finds the best
	// parameter, VOIP_ECHO is remapped to a constant — only the mapping
	// changes, the app keeps calling the same getter.
	tr := newTranslator(t)
	h := tr.RegisterSchema([]string{"VOIP_ECHO"})
	m := testMapping()
	m.Fields["VOIP_ECHO"] = FieldBinding{Backend: BackendConstant, Value: 0.42}
	if err := tr.LoadMapping(m.Encode()); err != nil {
		t.Fatal(err)
	}
	values, _ := tr.Translate(h, mkUser(7))
	if values["VOIP_ECHO"] != 0.42 {
		t.Errorf("VOIP_ECHO = %v after remap", values["VOIP_ECHO"])
	}
}

func TestSchemaHashOrderIndependent(t *testing.T) {
	a := SchemaHash([]string{"A", "B", "C"})
	b := SchemaHash([]string{"C", "A", "B"})
	if a != b {
		t.Error("schema hash must be order independent")
	}
	if SchemaHash([]string{"A"}) == SchemaHash([]string{"B"}) {
		t.Error("different schemas must differ")
	}
}

func TestValueHashStability(t *testing.T) {
	v1 := map[string]interface{}{"a": 1.0, "b": "x"}
	v2 := map[string]interface{}{"b": "x", "a": 1.0}
	h1, n1 := ValueHash(v1)
	if h2, _ := ValueHash(v2); h1 != h2 {
		t.Error("value hash must be order independent")
	}
	v3 := map[string]interface{}{"a": 2.0, "b": "x"}
	if h3, _ := ValueHash(v3); h1 == h3 {
		t.Error("different values must hash differently")
	}
	if want := len(`{"a":1,"b":"x"}`); n1 != want {
		t.Errorf("encoded size = %d, want %d", n1, want)
	}
}

// deviceRig wires a translation server and devices on a simnet.
type deviceRig struct {
	net    *simnet.Network
	tr     *Translator
	server *Server
}

func newDeviceRig(t *testing.T) *deviceRig {
	t.Helper()
	net := simnet.New(simnet.DefaultLatency(), 5)
	tr := newTranslator(t)
	srv := NewServer(net, "mcfg-1", simnet.Placement{Region: "us", Cluster: "web"}, tr,
		func(id int64) *gatekeeper.User { return mkUser(id) })
	return &deviceRig{net: net, tr: tr, server: srv}
}

func (r *deviceRig) addDevice(t *testing.T, i int64, fields []string) *Device {
	t.Helper()
	h := r.tr.RegisterSchema(fields)
	d := NewDevice(r.net, simnet.NodeID(fmt.Sprintf("phone-%d", i)),
		simnet.Placement{Region: "mobile", Cluster: "cell"}, "mcfg-1", "MY_CONFIG", i, h)
	d.SetPollInterval(10 * time.Minute)
	return d
}

func TestDevicePullAndCache(t *testing.T) {
	r := newDeviceRig(t)
	d := r.addDevice(t, 1, []string{"FEATURE_X", "MAX_RETRIES"})
	r.net.RunFor(time.Minute)
	if d.flash["FEATURE_X"] != true {
		t.Error("FEATURE_X not cached on device")
	}
	if d.GetFloat("MAX_RETRIES", 0) != 3.0 {
		t.Error("MAX_RETRIES not cached")
	}
	if d.Updates != 1 {
		t.Errorf("Updates = %d", d.Updates)
	}
	// Subsequent polls with unchanged values hit the not-modified path.
	r.net.RunFor(time.Hour)
	if d.CacheHits == 0 {
		t.Error("no not-modified responses")
	}
	if d.Updates != 1 {
		t.Errorf("Updates grew to %d without changes", d.Updates)
	}
	if r.server.BytesSaved == 0 {
		t.Error("BytesSaved = 0; delta protocol not saving bandwidth")
	}
}

func TestMappingChangePropagatesOnNextPoll(t *testing.T) {
	r := newDeviceRig(t)
	d := r.addDevice(t, 1, []string{"MAX_RETRIES"})
	r.net.RunFor(time.Minute)
	if d.GetFloat("MAX_RETRIES", 0) != 3.0 {
		t.Fatal("initial value missing")
	}
	m := testMapping()
	m.Fields["MAX_RETRIES"] = FieldBinding{Backend: BackendConstant, Value: 7.0}
	if err := r.tr.LoadMapping(m.Encode()); err != nil {
		t.Fatal(err)
	}
	r.net.RunFor(11 * time.Minute) // next poll
	if d.GetFloat("MAX_RETRIES", 0) != 7.0 {
		t.Errorf("MAX_RETRIES = %v after mapping change", d.GetFloat("MAX_RETRIES", 0))
	}
}

func TestEmergencyPushTriggersImmediatePull(t *testing.T) {
	r := newDeviceRig(t)
	d := r.addDevice(t, 1, []string{"FEATURE_X"})
	d.SetPollInterval(24 * time.Hour) // effectively never polls again
	r.net.RunFor(time.Minute)
	if d.flash["FEATURE_X"] != true {
		t.Fatal("initial pull missing")
	}
	// Kill the buggy feature and push.
	spec := &gatekeeper.ProjectSpec{Project: "ProjX", Rules: []gatekeeper.RuleSpec{{
		Restraints:      []gatekeeper.RestraintSpec{{Name: "always"}},
		PassProbability: 0,
	}}}
	reg := gatekeeper.NewRegistry(nil)
	rt := gatekeeper.NewRuntime(reg)
	if err := rt.Load(spec.Encode()); err != nil {
		t.Fatal(err)
	}
	r.tr.gk = rt
	r.net.After(0, func() {
		ctx := simnet.MakeContext(r.net, "mcfg-1")
		r.server.Push(&ctx, "MY_CONFIG", []simnet.NodeID{"phone-1"})
	})
	r.net.RunFor(time.Minute)
	if d.flash["FEATURE_X"] != false {
		t.Error("emergency disable did not reach the device")
	}
	if d.PushesHandled != 1 {
		t.Errorf("PushesHandled = %d", d.PushesHandled)
	}
}

func TestLostPushRecoveredByPoll(t *testing.T) {
	r := newDeviceRig(t)
	d := r.addDevice(t, 1, []string{"MAX_RETRIES"})
	d.SetPollInterval(30 * time.Minute)
	r.net.RunFor(time.Minute)
	// Push notifications to this device are all lost.
	r.net.SetLoss("mcfg-1", "phone-1", 1.0)
	m := testMapping()
	m.Fields["MAX_RETRIES"] = FieldBinding{Backend: BackendConstant, Value: 9.0}
	if err := r.tr.LoadMapping(m.Encode()); err != nil {
		t.Fatal(err)
	}
	r.net.After(0, func() {
		ctx := simnet.MakeContext(r.net, "mcfg-1")
		r.server.Push(&ctx, "MY_CONFIG", []simnet.NodeID{"phone-1"})
	})
	r.net.RunFor(2 * time.Minute)
	if d.GetFloat("MAX_RETRIES", 0) == 9.0 {
		t.Fatal("push should have been lost")
	}
	// The periodic poll eventually repairs it: push alone is unreliable,
	// pull is the backstop (§5).
	r.net.SetLoss("mcfg-1", "phone-1", 0) // only the push path was lossy anyway
	r.net.RunFor(40 * time.Minute)
	if d.GetFloat("MAX_RETRIES", 0) != 9.0 {
		t.Error("poll did not recover the lost push")
	}
}

func TestManyDevicesBandwidthSavings(t *testing.T) {
	r := newDeviceRig(t)
	var devices []*Device
	for i := int64(0); i < 50; i++ {
		devices = append(devices, r.addDevice(t, i, []string{"FEATURE_X", "MAX_RETRIES", "VOIP_ECHO"}))
	}
	r.net.RunFor(3 * time.Hour)
	var pulls, hits uint64
	for _, d := range devices {
		pulls += d.Pulls
		hits += d.CacheHits
	}
	if pulls == 0 || hits == 0 {
		t.Fatalf("pulls=%d hits=%d", pulls, hits)
	}
	// Values never change after the first pull, so nearly every poll is a
	// cache hit.
	if float64(hits)/float64(pulls) < 0.8 {
		t.Errorf("cache hit rate = %.2f, want > 0.8", float64(hits)/float64(pulls))
	}
}

func TestParseMappingErrors(t *testing.T) {
	if _, err := ParseMapping([]byte(`{`)); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ParseMapping([]byte(`{"fields":{}}`)); err == nil {
		t.Error("missing config name accepted")
	}
}
