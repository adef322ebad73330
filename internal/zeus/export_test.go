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

// SessionDeadlines returns the instant each proxy's session falls due, and
// an error if the slot index disagrees with the session table.
func (o *Observer) SessionDeadlines() (map[simnet.NodeID]time.Time, error) {
	out := make(map[simnet.NodeID]time.Time, len(o.sessions))
	for i, s := range o.sessions {
		if j, ok := o.slot[s.proxy]; !ok || int(j) != i {
			return nil, fmt.Errorf("session %d (%s) is indexed at slot %d (present: %v)", i, s.proxy, j, ok)
		}
		out[s.proxy] = time.Unix(0, s.due).UTC()
	}
	if len(o.slot) != len(o.sessions) {
		return nil, fmt.Errorf("%d slots indexed for %d sessions", len(o.slot), len(o.sessions))
	}
	return out, nil
}

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
