package zeus

import (
	"slices"
	"time"

	"configerator/internal/simnet"
)

// WriteResult reports the outcome of a client write.
type WriteResult struct {
	OK      bool
	Zxid    int64
	Version int64
}

// Client is a write client for the ensemble (the Git Tailer is one). It
// finds the leader by following redirects and retries on timeout, so a
// caller only supplies the write and a completion callback.
type Client struct {
	id      simnet.NodeID
	members []simnet.NodeID
	target  int // index of the member currently believed to lead
	nextReq int64
	pending map[int64]*pendingWrite
}

type pendingWrite struct {
	msg  MsgWrite
	done func(WriteResult)
	sent time.Time
	// try numbers the sends; only the latest send's retry timer acts, so a
	// redirect does not start a second retry chain beside the first.
	try int
}

// clientRetryTimeout is how long the client waits for a reply before
// retrying against the next ensemble member.
const clientRetryTimeout = 1500 * time.Millisecond

type msgClientRetry struct {
	ReqID int64
	Try   int
}

// NewClient constructs a write client.
func NewClient(id simnet.NodeID, members []simnet.NodeID) *Client {
	return &Client{id: id, members: members, pending: make(map[int64]*pendingWrite)}
}

// Write submits a write via the network; done is invoked exactly once on
// commit (never on failure — the client retries internally until the write
// lands, which is the tailer's required at-least-once behaviour).
func (c *Client) Write(ctx *simnet.Context, path string, data []byte, done func(WriteResult)) {
	c.nextReq++
	req := MsgWrite{ReqID: c.nextReq, Path: path, Data: data}
	c.pending[req.ReqID] = &pendingWrite{msg: req, done: done, sent: ctx.Now()}
	c.send(ctx, req.ReqID)
}

// Delete submits a path deletion.
func (c *Client) Delete(ctx *simnet.Context, path string, done func(WriteResult)) {
	c.nextReq++
	req := MsgWrite{ReqID: c.nextReq, Path: path, Delete: true}
	c.pending[req.ReqID] = &pendingWrite{msg: req, done: done, sent: ctx.Now()}
	c.send(ctx, req.ReqID)
}

func (c *Client) send(ctx *simnet.Context, reqID int64) {
	p, ok := c.pending[reqID]
	if !ok {
		return
	}
	p.try++
	target := c.members[c.target%len(c.members)]
	ctx.SendSized(target, p.msg, len(p.msg.Data))
	ctx.SetTimer(clientRetryTimeout, msgClientRetry{ReqID: reqID, Try: p.try})
}

// Resend re-sends every unacknowledged write, in the order they were issued.
// The node hosting the client calls it when it is Restarted: the crash took
// the retry timers, and without a new send a pending write would wait
// forever.
func (c *Client) Resend(ctx *simnet.Context) {
	ids := make([]int64, 0, len(c.pending))
	for id := range c.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		c.send(ctx, id)
	}
}

// HandleMessage implements simnet.Handler.
func (c *Client) HandleMessage(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case MsgWriteReply:
		p, ok := c.pending[m.ReqID]
		if !ok {
			return // duplicate reply after retry
		}
		if m.OK {
			delete(c.pending, m.ReqID)
			if p.done != nil {
				p.done(WriteResult{OK: true, Zxid: m.Zxid, Version: m.Version})
			}
			return
		}
		// Not the leader: follow the redirect if provided, else rotate.
		if m.Redirect != "" {
			for i, member := range c.members {
				if member == m.Redirect {
					c.target = i
					break
				}
			}
		} else {
			c.target++
		}
		c.send(ctx, m.ReqID)
	case msgClientRetry:
		if p, ok := c.pending[m.ReqID]; ok && p.try == m.Try {
			c.target++ // current target unresponsive; rotate
			c.send(ctx, m.ReqID)
		}
	}
}

// PendingWrites reports in-flight writes (tests).
func (c *Client) PendingWrites() int { return len(c.pending) }
