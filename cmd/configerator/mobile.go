package main

import (
	"fmt"
	"time"

	"configerator/internal/gatekeeper"
	"configerator/internal/mobileconfig"
	"configerator/internal/simnet"
	"configerator/internal/vclock"
)

// mobileArm is one arm of the mobile demo's experiment.
type mobileArm struct {
	Variant string  `json:"variant"`
	Value   float64 `json:"value"`
	Devices int     `json:"devices"`
}

// runMobile plays the paper's MobileConfig example on 600 simulated
// devices that poll every 30 minutes: the translation layer maps
// MESSENGER.VOIP_ECHO to a three-arm experiment and each device pulls its
// arm; the field is then remapped to a constant (the mid arm's value), and
// every device converges on it at its next poll — no app release.
func runMobile(asJSON bool) {
	const devices, frozen = 600, 0.5
	net := simnet.New(simnet.DefaultLatency(), 11)
	arms := []*mobileArm{{Variant: "low", Value: 0.2}, {Variant: "mid", Value: frozen}, {Variant: "high", Value: 0.8}}
	var variants []mobileconfig.Variant
	for _, a := range arms {
		variants = append(variants, mobileconfig.Variant{Name: a.Variant, Weight: 1, Value: a.Value})
	}
	mapping := &mobileconfig.Mapping{
		Config: "MESSENGER",
		Fields: map[string]mobileconfig.FieldBinding{
			"VOIP_ECHO": {Backend: mobileconfig.BackendExperiment, Project: "EchoTuning", Variants: variants},
			"HD_CALLS":  {Backend: mobileconfig.BackendConstant, Value: true},
		},
	}
	translator := mobileconfig.NewTranslator(nil, nil)
	load := func() {
		if err := translator.LoadMapping(mapping.Encode()); err != nil {
			fatal("loading mapping: %v", err)
		}
	}
	load()
	schema := translator.RegisterSchema([]string{"VOIP_ECHO", "HD_CALLS"})
	mobileconfig.NewServer(net, "mcfg-1", simnet.Placement{Region: "us", Cluster: "web"}, translator,
		func(id int64) *gatekeeper.User {
			return &gatekeeper.User{ID: id, Platform: "android", Now: vclock.Epoch}
		})

	fleet := make([]*mobileconfig.Device, devices)
	for i := range fleet {
		fleet[i] = mobileconfig.NewDevice(net, simnet.NodeID(fmt.Sprintf("phone-%d", i)),
			simnet.Placement{Region: "mobile", Cluster: "cell"}, "mcfg-1", "MESSENGER", int64(i), schema)
		fleet[i].SetPollInterval(30 * time.Minute)
	}
	net.RunFor(5 * time.Minute)
	for _, d := range fleet {
		echo := d.GetFloat("VOIP_ECHO", -1)
		for _, a := range arms {
			if a.Value == echo {
				a.Devices++
			}
		}
	}

	mapping.Fields["VOIP_ECHO"] = mobileconfig.FieldBinding{Backend: mobileconfig.BackendConstant, Value: frozen}
	load()
	net.RunFor(45 * time.Minute)
	converged := 0
	for _, d := range fleet {
		if d.GetFloat("VOIP_ECHO", -1) == frozen {
			converged++
		}
	}

	if asJSON {
		printJSON(map[string]interface{}{"config": "MESSENGER", "field": "VOIP_ECHO", "devices": devices,
			"arms": arms, "frozen": frozen, "converged": converged})
		return
	}
	fmt.Printf("MESSENGER.VOIP_ECHO as a three-arm experiment on %d devices, after the first pull:\n", devices)
	for _, a := range arms {
		fmt.Printf("  %-4s echo=%.1f: %d devices (%.0f%%)\n", a.Variant, a.Value, a.Devices,
			100*float64(a.Devices)/devices)
	}
	fmt.Printf("VOIP_ECHO remapped to the constant %.1f: %d/%d devices on echo=%.1f 45 minutes later\n",
		frozen, converged, devices, frozen)
}
