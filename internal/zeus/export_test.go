package zeus

import (
	"fmt"
	"time"

	"configerator/internal/simnet"
)

// Hooks for the external tests in this directory (package zeus_test), which
// drive observers with real proxies; the proxy package imports this one.

// WatchSessionTTL is how long a watch session outlives its proxy's last
// contact.
const WatchSessionTTL = watchSessionTTL

// IsObserverTick reports whether msg is an observer's register-and-prune
// tick.
func IsObserverTick(msg simnet.Message) bool {
	_, ok := msg.(msgTickObserver)
	return ok
}

// StartObserverTicks arms the tick chain of an observer whose handler was
// added to the network by hand rather than by Ensemble.AddObserver.
func StartObserverTicks(net *simnet.Network, id simnet.NodeID) {
	net.SetTimer(id, 0, msgTickObserver{})
}

// SessionState is one live watch session: when it falls due, and whether
// it is parked.
type SessionState struct {
	Due    time.Time
	Parked bool
}

// Sessions returns every live session, from the table and the parked list,
// and an error if a proxy is in both or twice, or the slot index disagrees.
func (o *Observer) Sessions() (map[simnet.NodeID]SessionState, error) {
	out := make(map[simnet.NodeID]SessionState, len(o.sessions)+len(o.parked))
	check := func(s session, slot int32, parked bool) error {
		if j, ok := o.slot[s.proxy]; !ok || j != slot {
			return fmt.Errorf("session %s is indexed at slot %d (present: %v), want %d", s.proxy, j, ok, slot)
		}
		if _, dup := out[s.proxy]; dup {
			return fmt.Errorf("session %s is listed twice", s.proxy)
		}
		out[s.proxy] = SessionState{Due: time.Unix(0, s.due).UTC(), Parked: parked}
		return nil
	}
	for i, s := range o.sessions {
		if err := check(s, int32(i), false); err != nil {
			return nil, err
		}
	}
	for i, s := range o.parked {
		if err := check(s, -int32(i)-1, true); err != nil {
			return nil, err
		}
	}
	if len(o.slot) != len(out) {
		return nil, fmt.Errorf("%d slots indexed for %d sessions", len(o.slot), len(out))
	}
	return out, nil
}

// ID is the observer's node id.
func (o *Observer) ID() simnet.NodeID { return o.id }

// Watchers returns each watched path's live watchers in notification order,
// without compacting the sets (which live would).
func (o *Observer) Watchers() map[string][]simnet.NodeID {
	out := make(map[string][]simnet.NodeID, len(o.watches))
	for path, set := range o.watches {
		for _, id := range set.order {
			if set.members[id] {
				out[path] = append(out[path], id)
			}
		}
	}
	return out
}
