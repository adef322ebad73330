package simnet

// Tap makes fn hear every message delivered to id, just before its handler
// does. The tapped handler still answers to Waker.
func (n *Network) Tap(id NodeID, fn func(ctx *Context, from NodeID, msg Message)) {
	nd := &n.nodes[n.mustIdx(id)]
	nd.handler = tap{nd.handler, fn}
}

type tap struct {
	Handler
	fn func(ctx *Context, from NodeID, msg Message)
}

func (t tap) HandleMessage(ctx *Context, from NodeID, msg Message) {
	t.fn(ctx, from, msg)
	t.Handler.HandleMessage(ctx, from, msg)
}

func (t tap) OnWake(peer NodeID, answered int) {
	if w, ok := t.Handler.(Waker); ok {
		w.OnWake(peer, answered)
	}
}
