package core

// Option tweaks a request built by a Mutator client. Figure 3's Mutator is
// the programmatic config-change API ("config changes can also be initiated
// … programmatically by an automation tool invoking the APIs provided by the
// Mutator component"); here its clients are the tools that build their own
// ChangeRequests and hand them to Submit — sitevars.Bridge and
// gatekeeper.LaunchTool — and Option is what they share.
type Option func(*ChangeRequest)

// SkipCanary bypasses canary testing (emergency paths; use sparingly).
func SkipCanary() Option {
	return func(r *ChangeRequest) { r.SkipCanary = true }
}
