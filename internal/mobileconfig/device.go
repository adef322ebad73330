package mobileconfig

import (
	"time"

	"configerator/internal/gatekeeper"
	"configerator/internal/simnet"
)

// Poll protocol messages.

// MsgPull is the client poll: hashes only, no payload — the bandwidth
// optimization of §5.
type MsgPull struct {
	Config     string
	SchemaHash uint64
	ValueHash  uint64
	UserID     int64
}

// MsgNotModified answers a poll whose cached values are current.
type MsgNotModified struct{ Config string }

// MsgValues carries the recomputed values for the client's schema.
type MsgValues struct {
	Config string
	Values map[string]interface{}
	Hash   uint64
}

// MsgEmergencyPush is the push-notification hint: "pull now". It may be
// lost in transit (push notification is unreliable).
type MsgEmergencyPush struct{ Config string }

type msgTickPoll struct{}

// Server is a translation-layer server node: it answers device polls using
// its Translator and can fan out emergency pushes.
type Server struct {
	id simnet.NodeID
	tr *Translator
	// users resolves a device's user attributes (the real system looks
	// this up per request; the simulation injects it).
	users func(id int64) *gatekeeper.User

	// Polls and NotModified count protocol outcomes.
	Polls       uint64
	NotModified uint64
	// BytesSaved estimates bandwidth saved by the not-modified path.
	BytesSaved uint64
}

// NewServer creates a translation server node.
func NewServer(net *simnet.Network, id simnet.NodeID, p simnet.Placement,
	tr *Translator, users func(id int64) *gatekeeper.User) *Server {
	s := &Server{id: id, tr: tr, users: users}
	net.AddNode(id, p, s)
	return s
}

// ID returns the server's node id.
func (s *Server) ID() simnet.NodeID { return s.id }

// HandleMessage implements simnet.Handler.
func (s *Server) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	m, ok := msg.(MsgPull)
	if !ok {
		return
	}
	s.Polls++
	values, err := s.tr.Translate(m.SchemaHash, s.users(m.UserID))
	if err != nil {
		return // unknown schema: the device keeps its cache
	}
	h, size := ValueHash(values)
	if h == m.ValueHash {
		s.NotModified++
		s.BytesSaved += uint64(size)
		ctx.Send(from, MsgNotModified{Config: m.Config})
		return
	}
	ctx.SendSized(from, MsgValues{Config: m.Config, Values: values, Hash: h}, size)
}

// Push sends the emergency pull hint to a set of devices as one broadcast
// wave: all recipients share the same immutable hint message. devices must
// be deterministically ordered (each delivery draws jitter from the shared
// RNG in slice order).
func (s *Server) Push(ctx *simnet.Context, config string, devices []simnet.NodeID) {
	ctx.Broadcast(devices, MsgEmergencyPush{Config: config}, 0)
}

// Device is one mobile app install: a flash cache of config values, a
// periodic poll, and an emergency-push listener.
type Device struct {
	id     simnet.NodeID
	net    *simnet.Network
	server simnet.NodeID
	config string
	userID int64

	schemaHash uint64
	// flash is the on-device cache; it survives app restarts.
	flash     map[string]interface{}
	flashHash uint64
	interval  time.Duration

	// Stats.
	Pulls         uint64
	CacheHits     uint64
	Updates       uint64
	PushesHandled uint64
}

// DefaultPollInterval matches the paper's example ("e.g., once every
// hour").
const DefaultPollInterval = time.Hour

// NewDevice creates a device node that polls the given server immediately
// and then every poll interval.
func NewDevice(net *simnet.Network, id simnet.NodeID, p simnet.Placement,
	server simnet.NodeID, config string, userID int64, schemaHash uint64) *Device {
	return NewDeviceAt(net, id, p, server, config, userID, schemaHash, 0)
}

// NewDeviceAt is NewDevice with the first poll deferred by firstPoll —
// fleet-scale simulations spread a million devices' first polls across the
// poll interval instead of synchronizing a thundering herd at t=0 (real
// phones wake up whenever their users do).
func NewDeviceAt(net *simnet.Network, id simnet.NodeID, p simnet.Placement,
	server simnet.NodeID, config string, userID int64, schemaHash uint64,
	firstPoll time.Duration) *Device {
	d := &Device{
		id: id, net: net, server: server, config: config, userID: userID,
		schemaHash: schemaHash,
		flash:      make(map[string]interface{}),
		interval:   DefaultPollInterval,
	}
	net.AddNode(id, p, d)
	net.SetTimer(id, firstPoll, msgTickPoll{})
	return d
}

// SetPollInterval overrides the poll cadence (tests).
func (d *Device) SetPollInterval(iv time.Duration) { d.interval = iv }

// GetFloat reads a numeric field from the flash cache, or def when absent
// or mistyped — the app's getter path (Figure 6's myCfg.getBool is its
// boolean twin); it never blocks on the network.
func (d *Device) GetFloat(field string, def float64) float64 {
	if v, ok := d.flash[field].(float64); ok {
		return v
	}
	return def
}

// HandleMessage implements simnet.Handler.
func (d *Device) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case simnet.Restarted:
		// The flash cache survives the crash; the poll chain restarts.
		ctx.SetTimer(d.interval, msgTickPoll{})
	case msgTickPoll:
		d.pull(ctx)
		ctx.SetTimer(d.interval, msgTickPoll{})
	case MsgEmergencyPush:
		// The push carries no data; it triggers an immediate pull, so a
		// lost push only delays the device until its next poll.
		d.PushesHandled++
		d.pull(ctx)
	case MsgNotModified:
		d.CacheHits++
	case MsgValues:
		if m.Hash != d.flashHash {
			d.flash = m.Values
			d.flashHash = m.Hash
			d.Updates++
		}
		_ = m
	}
}

func (d *Device) pull(ctx *simnet.Context) {
	d.Pulls++
	ctx.Send(d.server, MsgPull{
		Config:     d.config,
		SchemaHash: d.schemaHash,
		ValueHash:  d.flashHash,
		UserID:     d.userID,
	})
}
