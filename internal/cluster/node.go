package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"vihot/internal/core"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
)

// Node is one cluster member: a serve.Manager behind the cluster wire,
// plus a push-replicated profile store. In this PR every node lives in
// the coordinator's process (static membership, in-process fleet); the
// wire layer between router and node is real either way — frames are
// encoded, CRC-framed, and decoded even over the loopback transport —
// so moving a node out of process is a transport swap, not a protocol
// change.
type Node struct {
	name string
	c    *Cluster
	mgr  *serve.Manager
	// store is Put-fed by MsgProfile replication; it has no loader, so
	// a Get miss means replication never reached this node.
	store *profilestore.Store
	// alive is cleared by KillNode (the simulated crash) and by the
	// failure detector's fencing; a dead node refuses every frame.
	alive atomic.Bool
	// pooled mirrors the manager's RecycleFrames: decode embedded CSI
	// datagrams into pool-owned frames only when the manager will
	// return them to the pool.
	pooled bool
}

// Name returns the member name.
func (n *Node) Name() string { return n.name }

// Manager exposes the node's serving engine (tests and the demo read
// its counters; routing must go through the cluster).
func (n *Node) Manager() *serve.Manager { return n.mgr }

// ErrNodeDown reports a frame offered to a dead node.
var ErrNodeDown = errors.New("cluster: node down")

// Handle is the node's transport handler: decode one frame, dispatch.
func (n *Node) Handle(frame []byte) error {
	if !n.alive.Load() {
		return fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	m, err := decodeMessage(frame, n.pooled)
	if err != nil {
		return err
	}
	return n.handle(m)
}

func (n *Node) handle(m *Message) error {
	switch m.Kind {
	case MsgItems:
		n.mgr.PushBatch(m.Items)
		return nil
	case MsgOpen:
		return n.mgr.OpenByKey(m.Session, m.Key, n.c.cfg.Pipeline)
	case MsgProfile:
		p, err := core.ReadProfile(bytes.NewReader(m.Profile))
		if err != nil {
			return fmt.Errorf("cluster: node %s: replicated profile %q: %w", n.name, m.Key, err)
		}
		return n.store.Put(m.Key, p)
	case MsgClose:
		return n.mgr.CloseSession(m.Session)
	case MsgPing:
		return n.send(&Message{Kind: MsgPong, From: n.name, T: m.T})
	default:
		return fmt.Errorf("%w: node %s got kind %v", ErrBadMessage, n.name, m.Kind)
	}
}

// send encodes and sends one node→router message through the
// transport (and the fault filter). It allocates its own encode
// buffer: the router's scratch belongs to the routing lock.
func (n *Node) send(m *Message) error {
	if drop := n.c.cfg.Drop; drop != nil && drop(m) {
		// Node→router frames carry no items; a partitioned pong just
		// stales the router's pong table until the heal.
		return nil
	}
	frame, err := EncodeMessage(nil, m)
	if err != nil {
		return err
	}
	n.c.metrics.messagesSent.Add(1)
	return n.c.transport.Send("", frame)
}
