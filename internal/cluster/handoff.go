package cluster

import (
	"fmt"
	"time"
)

// The handoff protocol (DESIGN.md §14). A handoff is a cold reopen:
// the session's new ring owner opens it by key over the already
// replicated profile, exactly as a first Open would. No session state
// travels: the tracker window and position lock cannot, so a moved
// session relocks like a fresh one either way, and carrying the clock,
// health and last estimate changed no pipeline estimate when measured.
//
// Drain (orderly): the member leaves the ring and is flushed; then each
// of its sessions is closed on it (its journal records KindClose, the
// durable mark that the session left) and reopened on its new owner.
// The emptied manager then CloseDrains, so its conservation identity
// closes exactly.
//
// Failover (detected): the dead node is fenced (hard Close) before the
// ring is rebuilt, so a partitioned-but-alive manager can never keep
// serving sessions the cluster has reassigned, and each of its
// sessions is reopened on its new owner from the directory's key.
//
// Either way the session resumes HEALTHY on its first frames; the
// items lost in between are the same gap a fresh session would see.

// Failure-detector timing, in seconds of stream time: the router's
// clock is the max item timestamp it has routed, never wall time, so
// detection points replay deterministically.
const (
	// heartbeatS is the interval between heartbeat probes.
	heartbeatS = 0.5
	// heartbeatMisses is how many consecutive heartbeat intervals a
	// node may go silent before it is declared dead and its sessions
	// fail over.
	heartbeatMisses = 4
)

// maybeHeartbeat runs the stream-time failure detector. Caller holds
// mu; the clock has just advanced. Pings go out every heartbeatS of
// stream-time advance; a node whose last pong lags the clock by more
// than heartbeatMisses*heartbeatS is declared dead and failed over.
func (c *Cluster) maybeHeartbeat() {
	if c.nextBeat == 0 {
		// First clock observation anchors the schedule and the pong
		// table: silence is measured from here, not from stream zero.
		c.nextBeat = c.clock + heartbeatS
		c.dirMu.Lock()
		for _, name := range c.names {
			c.lastPong[name] = c.clock
		}
		c.dirMu.Unlock()
		return
	}
	if c.clock < c.nextBeat {
		return
	}
	c.nextBeat = c.clock + heartbeatS
	// Probe first (a reachable node's pong lands synchronously on the
	// loopback transport), then judge.
	for _, name := range c.names {
		if c.live[name] {
			_ = c.send(&Message{Kind: MsgPing, To: name, T: c.clock})
		}
	}
	const deathAfter = heartbeatMisses * heartbeatS
	for _, name := range c.names {
		if !c.live[name] {
			continue
		}
		c.dirMu.Lock()
		gap := c.clock - c.lastPong[name]
		c.dirMu.Unlock()
		if gap >= heartbeatS {
			c.metrics.heartbeatMisses.Add(1)
		}
		if gap > deathAfter {
			c.failover(name)
		}
	}
}

// failover declares a node dead: fence it, rebuild the ring, and
// reopen its sessions on their new owners. Caller holds mu.
func (c *Cluster) failover(name string) {
	node := c.nodes[name]
	// Fence before reassigning: the manager is hard-closed so a
	// partitioned-but-alive node can never race the new owner for its
	// old sessions. Static membership means no rejoin — a fenced node
	// stays out until the fleet restarts.
	node.alive.Store(false)
	node.mgr.Close()
	c.live[name] = false
	ring, err := c.ring.Without(name)
	if err != nil {
		return
	}
	c.ring = ring
	c.metrics.reassignments.Add(1)
	c.metrics.nodesLive.Set(float64(c.liveCount()))
	c.metrics.ringPoints.Set(float64(ring.Points()))

	for _, id := range c.sortedDirSessions(name) {
		c.reopen(id, name, true, time.Time{})
	}
}

// liveCount counts live members. Caller holds mu.
func (c *Cluster) liveCount() int {
	n := 0
	for _, ok := range c.live {
		if ok {
			n++
		}
	}
	return n
}

// reopen moves one directory session off from: it opens the session
// by key on its new ring owner and repoints the directory. Caller
// holds mu. An open the transport (or the fault filter) eats is not
// retried: the directory still moves, so the session's items target
// the new owner and surface there as DroppedUnknown — visible, not
// silent. t0, when set, is the wall start DurNS is measured from.
func (c *Cluster) reopen(id, from string, failover bool, t0 time.Time) (HandoffEvent, bool) {
	c.dirMu.Lock()
	e := c.dir[id]
	c.dirMu.Unlock()
	dest := c.ring.Owner(id)
	if e == nil || dest == "" {
		return HandoffEvent{}, false // closed meanwhile, or no member left
	}
	key := e.key // set at open, never written again
	_ = c.send(&Message{Kind: MsgOpen, To: dest, Session: id, Key: key})
	c.dirMu.Lock()
	e.node = dest
	c.dirMu.Unlock()
	if failover {
		c.metrics.handoffFailover.Add(1)
	} else {
		c.metrics.handoffDrain.Add(1)
	}
	ev := HandoffEvent{Session: id, Key: key, From: from, To: dest, Failover: failover}
	if c.haveClock {
		ev.T = c.clock
	}
	if !t0.IsZero() {
		// The open lands synchronously on the loopback transport, so
		// the stamp spans close-to-reopened.
		ev.DurNS = time.Since(t0).Nanoseconds()
	}
	if c.cfg.OnHandoff != nil {
		c.cfg.OnHandoff(ev)
	}
	return ev, true
}

// DrainNode performs node maintenance: the member leaves the ring,
// is flushed, and each of its sessions is closed there and reopened on
// its new owner; then the empty manager shuts down gracefully. Returns
// the transfers in session order. The caller must not push
// concurrently with a drain in deterministic mode; in concurrent mode
// pushes serialize behind the router lock as usual.
func (c *Cluster) DrainNode(name string) ([]HandoffEvent, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClusterClosed
	}
	node := c.nodes[name]
	if node == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	if !c.live[name] {
		return nil, fmt.Errorf("%w: %q already down", ErrUnknownNode, name)
	}
	ring, err := c.ring.Without(name)
	if err != nil {
		return nil, err
	}
	// Leave the ring first: from here no new session can land on the
	// draining node (pushes wait on mu, so no items race the drain).
	c.ring = ring
	c.metrics.reassignments.Add(1)
	c.metrics.ringPoints.Set(float64(ring.Points()))

	// Flush so every item already routed here is processed before its
	// session closes.
	node.mgr.Flush()
	ids := c.sortedDirSessions(name)
	events := make([]HandoffEvent, 0, len(ids))
	for _, id := range ids {
		var t0 time.Time
		if c.cfg.MeasureHandoff {
			t0 = time.Now()
		}
		_ = c.send(&Message{Kind: MsgClose, To: name, Session: id})
		if ev, ok := c.reopen(id, name, false, t0); ok {
			events = append(events, ev)
		}
	}
	// The node is empty (every session closed) — a graceful stop
	// closes its books exactly.
	node.alive.Store(false)
	c.live[name] = false
	node.mgr.CloseDrain()
	c.metrics.nodesLive.Set(float64(c.liveCount()))
	return events, nil
}

// KillNode simulates a crash: the member's manager hard-stops and its
// endpoint refuses frames, but the router is not told — items for its
// sessions drop (DroppedDown) until the stream-time failure detector
// notices the silence and fails the sessions over. Tests and the
// chaos soak use this; production nodes die by themselves.
func (c *Cluster) KillNode(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	node := c.nodes[name]
	if node == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	// alive drops first so no frame can land between the two.
	node.alive.Store(false)
	node.mgr.Close()
	return nil
}
