// Package gatekeeper implements Gatekeeper (§4): staged rollout of product
// features and A/B experiments through live config changes.
//
// A Gatekeeper project is gating logic in disjunctive normal form: an
// ordered list of if-statements whose conditions are conjunctions of
// restraints (employee? country? device model? laser score above T?), each
// with a configurable pass probability that samples users
// deterministically. Restraints are statically implemented (hundreds exist
// at Facebook; ~20 here); projects are composed from them dynamically
// through configuration, so the rollout target changes with a config
// update and no code push. The runtime reads the project config, builds a
// boolean tree, and — like an SQL engine doing cost-based optimization —
// uses execution statistics (restraint cost and probability of returning
// true) to evaluate the tree efficiently.
package gatekeeper

import "time"

// User is the evaluation context for one gate check: the viewer and
// environment attributes restraints inspect.
type User struct {
	ID          int64         `json:"id"`
	Employee    bool          `json:"employee"`
	Country     string        `json:"country"`
	Region      string        `json:"region"`
	Locale      string        `json:"locale"`
	App         string        `json:"app"`         // product binary: "www", "fb4a", "messenger", ...
	Platform    string        `json:"platform"`    // "www", "ios", "android"
	AppVersion  int           `json:"app_version"` // monotone build number
	DeviceModel string        `json:"device_model"`
	AccountAge  time.Duration `json:"-"` // account_age_days in ParseUser's JSON
	FriendCount int           `json:"friend_count"`
	// Now is the check time (virtual time in simulations).
	Now time.Time `json:"now"`
}
