package zeus

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"configerator/internal/obs"
	"configerator/internal/simnet"
	"configerator/internal/stats"
	"configerator/internal/vcs"
)

// recordOf is content born in a test: bytes plus the digest a DataTree
// would have computed for them.
func recordOf(data []byte) *Record {
	return &Record{Data: data, Hash: vcs.HashBytes(data)}
}

// oracleResolve is what Resolve meant before the digest rode along, kept
// here as the reference: hash the receiver's own bytes, apply the delta to
// them, hash the result. (A full body is checked against NewHash too, which
// the old code forgot.)
func oracleResolve(p Payload, base []byte) ([]byte, error) {
	out := p.Full
	if p.IsDelta {
		if vcs.HashBytes(base) != p.BaseHash {
			return nil, vcs.ErrBadDelta
		}
		var err error
		if out, err = vcs.ApplyDelta(base, p.Delta); err != nil {
			return nil, err
		}
	}
	if vcs.HashBytes(out) != p.NewHash {
		return nil, vcs.ErrBadDelta
	}
	return out, nil
}

// receiver is one holder of a base version: its own copy of the bytes and
// the digest it computed when it got them. A receiver that holds nothing
// passes (nil, 0), as the observer and proxy do.
type receiver struct {
	base []byte
	hash uint64
}

func holding(data []byte) receiver {
	if data == nil {
		return receiver{}
	}
	own := append([]byte{}, data...) // its own copy: no aliasing between receivers
	return receiver{base: own, hash: vcs.HashBytes(own)}
}

func randomBody(rng *stats.RNG, n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, "tier.%08x = %08x\n", rng.Uint64()&0xffffffff, rng.Uint64()&0xffffffff)
	}
	return b.Bytes()
}

// smallEdit rewrites a few bytes in the middle of body.
func smallEdit(rng *stats.RNG, body []byte) []byte {
	out := append([]byte{}, body...)
	at := len(out)/4 + rng.Intn(len(out)/2)
	for i := 0; i < 1+rng.Intn(8) && at+i < len(out); i++ {
		out[at+i] ^= byte(1 + rng.Intn(255))
	}
	return out
}

// TestSharedResolveMatchesPerReceiverResolve: K receivers of one MakePayload
// result — some holding the base it was made against, some a diverged one,
// some nothing — each get exactly what resolving alone against their own
// bytes would give, whatever order they arrive in and however often they
// ask. In particular a wrong-base receiver is refused both before and after
// the shared cell is filled, and a payload whose content does not hash to
// NewHash fails for everyone.
func TestSharedResolveMatchesPerReceiverResolve(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 400; trial++ {
		var old, cur []byte
		switch trial % 6 {
		case 0, 1: // small edit
			old = randomBody(rng, 64+rng.Intn(4096))
			cur = smallEdit(rng, old)
		case 2: // whole rewrite
			old, cur = randomBody(rng, 64+rng.Intn(2048)), randomBody(rng, 64+rng.Intn(2048))
		case 3: // empty on one side or both
			old, cur = []byte{}, []byte{}
			if rng.Bool(0.5) {
				old = randomBody(rng, 256)
			}
			if rng.Bool(0.5) {
				cur = randomBody(rng, 256)
			}
		case 4: // equal
			old = randomBody(rng, 64+rng.Intn(1024))
			cur = append([]byte{}, old...)
		case 5: // no base at the sender: a full snapshot
			cur = randomBody(rng, 64+rng.Intn(1024))
		}
		var oldRec *Record
		if old != nil {
			oldRec = recordOf(old)
		}
		p := MakePayload(oldRec, recordOf(cur))

		// Corrupt one payload in three: bytes that still parse but are not
		// the content NewHash names, or (deltas) bytes that do not parse.
		switch corrupt := rng.Intn(3) == 0; {
		case corrupt && p.IsDelta && rng.Bool(0.3):
			p.Delta = []byte{0xff}
		case corrupt && p.IsDelta:
			p.Delta = append([]byte{}, p.Delta...)
			p.Delta[len(p.Delta)-1] ^= 0x55
		case corrupt && len(p.Full) > 0:
			p.Full = append([]byte{}, p.Full...)
			p.Full[rng.Intn(len(p.Full))] ^= 0x55
		}

		receivers := make([]receiver, 0, 8)
		for k := 0; k < 8; k++ {
			switch rng.Intn(4) {
			case 0:
				receivers = append(receivers, holding(nil))
			case 1:
				receivers = append(receivers, holding(randomBody(rng, 64+rng.Intn(512))))
			default:
				receivers = append(receivers, holding(old))
			}
		}
		// Two passes in arrival order: by the second the cell is filled if
		// anyone could fill it.
		for pass := 0; pass < 2; pass++ {
			for k, r := range receivers {
				want, wantErr := oracleResolve(p, r.base)
				got, hash, err := p.Resolve(r.base, r.hash)
				switch {
				case (err == nil) != (wantErr == nil),
					err != nil && errors.Is(wantErr, vcs.ErrBadDelta) != errors.Is(err, vcs.ErrBadDelta):
					t.Fatalf("trial %d pass %d receiver %d: err = %v, resolving alone gives %v", trial, pass, k, err, wantErr)
				case err != nil && (got != nil || hash != 0):
					t.Fatalf("trial %d pass %d receiver %d: a refused payload returned content", trial, pass, k)
				case err == nil && (!bytes.Equal(got, want) || !bytes.Equal(got, cur)):
					t.Fatalf("trial %d pass %d receiver %d: shared bytes differ from resolving alone", trial, pass, k)
				case err == nil && hash != vcs.HashBytes(got):
					t.Fatalf("trial %d pass %d receiver %d: digest %x is not the content's %x", trial, pass, k, hash, vcs.HashBytes(got))
				}
			}
		}
	}
}

// FuzzPayloadResolve: arbitrary payload fields against an arbitrary base,
// with and without a shared cell, never panic, and anything Resolve accepts
// hashes to NewHash. With honest set, the hashes are made to fit the fuzzed
// bytes so the accepting paths are reachable, and the result must be what
// ApplyDelta gives.
func FuzzPayloadResolve(f *testing.F) {
	// The corpus — a delta on the right and on the wrong base, an honest and
	// a forged full body, garbage and uint64-wrapping deltas — is in
	// testdata/fuzz.
	f.Add([]byte("whole body"), []byte(nil), uint64(0), vcs.HashBytes([]byte("whole body")), false, []byte(nil), false)
	f.Fuzz(func(t *testing.T, full, delta []byte, baseHash, newHash uint64, isDelta bool, base []byte, honest bool) {
		p := Payload{Full: full, Delta: delta, BaseHash: baseHash, NewHash: newHash, IsDelta: isDelta}
		have := vcs.HashBytes(base)
		want, applyErr := full, error(nil)
		if isDelta {
			want, applyErr = vcs.ApplyDelta(base, delta)
		}
		if honest {
			p.BaseHash, p.NewHash = have, vcs.HashBytes(want)
		}
		for _, cell := range []*resolveCell{nil, new(resolveCell)} {
			p.cell = cell
			for i := 0; i < 2; i++ { // the second call takes the filled cell
				data, hash, err := p.Resolve(base, have)
				if err != nil {
					if honest && applyErr == nil {
						t.Fatalf("honest payload refused: %v", err)
					}
					continue
				}
				if hash != p.NewHash || vcs.HashBytes(data) != p.NewHash {
					t.Fatalf("accepted content hashes to %x, digest %x, NewHash %x", vcs.HashBytes(data), hash, p.NewHash)
				}
				if honest && !bytes.Equal(data, want) {
					t.Fatalf("accepted content is not what the delta produces")
				}
			}
		}
	})
}

// TestObserverRefusesForgedFullBody: a whole-body push whose bytes do not
// hash to NewHash never enters the observer's tree; it takes the delta-miss
// path (re-register from the last good zxid) and the catch-up's honest bytes
// land — while a catch-up batch with a forged body is refused the same way.
func TestObserverRefusesForgedFullBody(t *testing.T) {
	net := simnet.New(simnet.DefaultLatency(), 35)
	reg := obs.New()
	o := NewObserver("obs-1", []simnet.NodeID{"zeus-0"})
	o.Obs = reg
	net.AddNode("obs-1", simnet.Placement{Region: "us", Cluster: "c1"}, o)
	var registers []msgObserverRegister
	net.AddNode("zeus-0", simnet.Placement{Region: "us", Cluster: "zk"}, simnet.HandlerFunc(
		func(_ *simnet.Context, _ simnet.NodeID, msg simnet.Message) {
			if m, ok := msg.(msgObserverRegister); ok {
				registers = append(registers, m)
			}
		}))
	send := func(msg simnet.Message) {
		net.After(0, func() {
			ctx := simnet.MakeContext(net, "zeus-0")
			ctx.Send("obs-1", msg)
		})
		net.RunFor(time.Second)
	}

	good := []byte("the committed bytes")
	forged := MakePayload(nil, recordOf(good))
	forged.Full = []byte("not the committed bytes")
	send(msgUpdates{Epoch: 1, Updates: []Update{{Path: "/a", Version: 1, Zxid: 1, Payload: forged}}})

	if rec := o.Tree().Get("/a"); rec != nil {
		t.Fatalf("forged body entered the tree: %q", rec.Data)
	}
	if n := reg.Counters().Get("zeus.observer.delta_miss"); n != 1 {
		t.Errorf("zeus.observer.delta_miss = %d, want 1", n)
	}
	if len(registers) != 1 || registers[0].LastZxid != 0 {
		t.Fatalf("re-registrations = %+v, want one from zxid 0", registers)
	}

	// A catch-up is the leader's ChangedAfter: whole bodies with the records'
	// digests. A forged one is refused like the push was; the honest one lands.
	leader := NewDataTree()
	leader.Apply(WriteOp{Zxid: 1, Path: "/a", Data: good, Version: 1})
	catchUp := leader.ChangedAfter(0)
	bad := append([]Update(nil), catchUp...)
	bad[0].Payload.Full = []byte("not the committed bytes")
	send(msgUpdates{Epoch: 1, Updates: bad})
	if rec := o.Tree().Get("/a"); rec != nil {
		t.Fatalf("forged catch-up body entered the tree: %q", rec.Data)
	}
	if n := reg.Counters().Get("zeus.observer.delta_miss"); n != 2 {
		t.Errorf("zeus.observer.delta_miss = %d, want 2", n)
	}

	send(msgUpdates{Epoch: 1, Updates: catchUp})
	rec := o.Tree().Get("/a")
	if rec == nil || !bytes.Equal(rec.Data, good) || rec.Hash != vcs.HashBytes(good) {
		t.Fatalf("after catch-up, tree = %+v", rec)
	}
}
