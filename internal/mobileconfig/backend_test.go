package mobileconfig

import (
	"testing"
	"time"

	"configerator/internal/confclient"
	"configerator/internal/proxy"
	"configerator/internal/simnet"
	"configerator/internal/zeus"
)

// TestConfigeratorBackend exercises the fourth backend kind: a mobile
// field mapped straight onto a Configerator config field served through a
// real Zeus + proxy stack.
func TestConfigeratorBackend(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 31)
	ens := zeus.StartEnsemble(net, 3, []simnet.Placement{
		{Region: "us", Cluster: "zk1"},
		{Region: "us", Cluster: "zk2"},
		{Region: "eu", Cluster: "zk3"},
	})
	ens.AddObserver("obs-1", simnet.Placement{Region: "us", Cluster: "web"})
	wc := zeus.NewClient("writer", ens.Members)
	net.AddNode("writer", simnet.Placement{Region: "us", Cluster: "ctrl"}, wc)
	net.RunFor(10 * time.Second)
	done := false
	net.After(0, func() {
		ctx := simnet.MakeContext(net, "writer")
		wc.Write(&ctx, "/configs/mobile/upload.json",
			[]byte(`{"quality":0.8,"max_mb":25}`), func(zeus.WriteResult) { done = true })
	})
	for i := 0; i < 100 && !done; i++ {
		net.RunFor(200 * time.Millisecond)
	}
	if !done {
		t.Fatal("seed write never committed")
	}
	px := proxy.New(net, "proxy-1", simnet.Placement{Region: "us", Cluster: "web"},
		[]simnet.NodeID{"obs-1"}, nil)
	client := confclient.New(px)
	px.Want("/configs/mobile/upload.json")
	net.RunFor(5 * time.Second)

	tr := NewTranslator(nil, client)
	mapping := &Mapping{Config: "APP", Fields: map[string]FieldBinding{
		"UPLOAD_QUALITY": {Backend: BackendConfigerator,
			Path: "/configs/mobile/upload.json", Field: "quality"},
		"WHOLE_CONFIG": {Backend: BackendConfigerator,
			Path: "/configs/mobile/upload.json"},
		"MISSING_FIELD": {Backend: BackendConfigerator,
			Path: "/configs/mobile/upload.json", Field: "nope"},
		"MISSING_PATH": {Backend: BackendConfigerator,
			Path: "/configs/never.json", Field: "x"},
	}}
	if err := tr.LoadMapping(mapping.Encode()); err != nil {
		t.Fatal(err)
	}
	if tr.Mapping().Config != "APP" {
		t.Errorf("Mapping accessor broken")
	}
	h := tr.RegisterSchema([]string{"UPLOAD_QUALITY", "WHOLE_CONFIG", "MISSING_FIELD", "MISSING_PATH"})
	if fields, ok := tr.SchemaFields(h); !ok || len(fields) != 4 {
		t.Errorf("SchemaFields = %v, %v", fields, ok)
	}
	values, err := tr.Translate(h, mkUser(1))
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := values["UPLOAD_QUALITY"].(float64); !ok || q != 0.8 {
		t.Errorf("UPLOAD_QUALITY = %v", values["UPLOAD_QUALITY"])
	}
	if _, ok := values["WHOLE_CONFIG"]; !ok {
		t.Error("WHOLE_CONFIG missing")
	}
	// Unresolvable bindings are omitted, not fatal — the device keeps the
	// rest of its config.
	if _, ok := values["MISSING_FIELD"]; ok {
		t.Error("MISSING_FIELD should be omitted")
	}
	if _, ok := values["MISSING_PATH"]; ok {
		t.Error("MISSING_PATH should be omitted")
	}
}

func TestDeviceAccessors(t *testing.T) {
	r := newDeviceRig(t)
	d := r.addDevice(t, 1, []string{"FEATURE_X", "MAX_RETRIES"})
	r.net.RunFor(time.Minute)
	if d.GetFloat("MAX_RETRIES", 9) != 3 {
		t.Errorf("GetFloat = %v", d.GetFloat("MAX_RETRIES", 9))
	}
	if d.GetFloat("NOPE", 9) != 9 {
		t.Error("GetFloat on a missing field should default")
	}
	if d.GetFloat("FEATURE_X", 9) != 9 {
		t.Error("GetFloat on bool should default")
	}
}

func TestDeviceRestartKeepsFlashAndResumesPolling(t *testing.T) {
	r := newDeviceRig(t)
	d := r.addDevice(t, 1, []string{"MAX_RETRIES"})
	r.net.RunFor(time.Minute)
	if d.GetFloat("MAX_RETRIES", 0) != 3.0 {
		t.Fatal("initial value missing")
	}
	// App restart: flash survives, polling resumes.
	r.net.Fail("phone-1")
	r.net.RunFor(time.Minute)
	r.net.Recover("phone-1")
	if d.GetFloat("MAX_RETRIES", 0) != 3.0 {
		t.Error("flash cache lost across restart")
	}
	// Change the backend; the resumed poll picks it up.
	m := testMapping()
	m.Fields["MAX_RETRIES"] = FieldBinding{Backend: BackendConstant, Value: 5.0}
	if err := r.tr.LoadMapping(m.Encode()); err != nil {
		t.Fatal(err)
	}
	r.net.RunFor(30 * time.Minute)
	if d.GetFloat("MAX_RETRIES", 0) != 5.0 {
		t.Error("polling did not resume after restart")
	}
}

func TestTranslateEmptyVariants(t *testing.T) {
	tr := NewTranslator(nil, nil)
	m := &Mapping{Config: "X", Fields: map[string]FieldBinding{
		"E":  {Backend: BackendExperiment, Project: "p"},                                              // no variants
		"E0": {Backend: BackendExperiment, Project: "p", Variants: []Variant{{Name: "a", Weight: 0}}}, // zero weight
		"GK": {Backend: BackendGatekeeper, Project: "p"},                                              // nil runtime
		"??": {Backend: "unknown"},
	}}
	if err := tr.LoadMapping(m.Encode()); err != nil {
		t.Fatal(err)
	}
	h := tr.RegisterSchema([]string{"E", "E0", "GK", "??"})
	values, err := tr.Translate(h, mkUser(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 0 {
		t.Errorf("values = %v, want all omitted", values)
	}
}

func TestTranslateNoMapping(t *testing.T) {
	tr := NewTranslator(nil, nil)
	h := tr.RegisterSchema([]string{"A"})
	if _, err := tr.Translate(h, mkUser(1)); err == nil {
		t.Fatal("expected error without a mapping")
	}
}
