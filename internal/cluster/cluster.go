package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"vihot/internal/core"
	"vihot/internal/obs"
	"vihot/internal/profilestore"
	"vihot/internal/serve"
)

// Errors returned by the coordinator.
var (
	ErrClusterClosed  = errors.New("cluster: closed")
	ErrUnknownNode    = errors.New("cluster: unknown node")
	ErrUnknownSession = errors.New("cluster: unknown session")
	ErrNoMembers      = errors.New("cluster: no members")
)

// Config tunes a Cluster. Nodes is required; everything else has
// defaults.
type Config struct {
	// Nodes is the static membership: unique non-empty member names.
	Nodes []string

	// Pipeline configures every session pipeline; the zero value
	// selects core defaults at the node.
	Pipeline core.PipelineConfig
	// Serve is the per-node serving template. The cluster overrides
	// Profiles (each node gets a replication-fed store) and
	// Deterministic; the rest (Shards, QueueLen, SessionTTLS,
	// RecycleFrames, OnEstimate, OnEvent, Journal, ...) applies to
	// every node as given.
	Serve serve.Config
	// NodeServe, if set, customizes one node's serve config (per-node
	// journals, metrics registries); it runs before the cluster's own
	// overrides.
	NodeServe func(name string, base serve.Config) serve.Config
	// Deterministic runs every node manager in deterministic mode and
	// requires all cluster calls from one goroutine; with the loopback
	// transport the whole cluster is then one total order of frames.
	Deterministic bool

	// OnHandoff, if set, receives every session transfer, drain and
	// failover alike, in transfer order. Called with the router lock
	// held: do not call back into the cluster from it.
	OnHandoff func(ev HandoffEvent)

	// Drop, if set, is the fault filter: return true to eat the frame
	// (internal/faults wires its partition injector here). Called for
	// every message in both directions; must be concurrency-safe.
	Drop func(m *Message) bool

	// Metrics, if set, registers the vihot_cluster_* series there.
	Metrics *obs.Registry
	// MeasureHandoff stamps wall-clock durations on DrainNode's
	// returned events (for benches). Off by default so deterministic
	// runs read no wall clocks.
	MeasureHandoff bool
}

// HandoffEvent is one session transfer.
type HandoffEvent struct {
	Session  string
	Key      string
	From, To string
	T        float64 // the router's stream clock at the handoff (0 before any item)
	Failover bool
	// DurNS is the wall duration of the transfer, only when
	// Config.MeasureHandoff is set.
	DurNS int64
}

// dirEntry is the router's view of one session: its current owner
// and the profile key a handoff reopens it under.
type dirEntry struct {
	node string
	key  string
}

// Cluster is the coordinator: the ring, the routing directory, the
// heartbeat failure detector, and the handoff engine. One Cluster
// owns its member nodes in-process.
//
// Locking: mu guards the ring, membership liveness, the stream clock,
// and every routing decision; dirMu guards the directory and the
// heartbeat pong table. dirMu nests inside mu (pongs delivered
// synchronously under mu take dirMu) and never the reverse.
type Cluster struct {
	cfg       Config
	names     []string // sorted membership
	transport *Loopback
	metrics   clusterMetrics

	mu        sync.Mutex
	closed    bool
	ring      *Ring
	nodes     map[string]*Node
	live      map[string]bool
	clock     float64
	haveClock bool
	nextBeat  float64
	encBuf    []byte          // router-side encode scratch, guarded by mu
	repl      map[string]bool // profile keys already replicated

	dirMu    sync.Mutex
	dir      map[string]*dirEntry
	lastPong map[string]float64
}

// New builds the cluster: one serve.Manager per member, everything
// registered on the transport, the ring assembled. Close (or
// CloseDrain) releases the nodes.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, ErrNoMembers
	}
	if cfg.Pipeline == (core.PipelineConfig{}) {
		// A fully zero pipeline config means "core defaults". Passing
		// the zero value straight through would instead hit NewTracker's
		// minimal-legal fallbacks (stride 1, step 1 — ~4× the matching
		// work of the defaults' stride 2, step 2).
		cfg.Pipeline = core.DefaultPipelineConfig()
	}
	ring, err := NewRing(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		names:    ring.Members(),
		ring:     ring,
		nodes:    make(map[string]*Node),
		live:     make(map[string]bool),
		repl:     make(map[string]bool),
		dir:      make(map[string]*dirEntry),
		lastPong: make(map[string]float64),
		metrics:  newClusterMetrics(cfg.Metrics),
	}
	for _, n := range c.names {
		if len(n) > maxNodeName {
			return nil, fmt.Errorf("cluster: member name %q too long", n)
		}
	}
	c.transport = NewLoopback()
	if err := c.transport.Register("", c.handleFrame); err != nil {
		return nil, err
	}
	for _, name := range c.names {
		node := &Node{
			name:  name,
			c:     c,
			store: profilestore.New(profilestore.Config{}),
		}
		scfg := cfg.Serve
		if cfg.NodeServe != nil {
			scfg = cfg.NodeServe(name, scfg)
		}
		scfg.Deterministic = cfg.Deterministic
		scfg.Profiles = node.store
		node.pooled = scfg.RecycleFrames
		node.mgr = serve.New(scfg)
		node.alive.Store(true)
		c.nodes[name] = node
		c.live[name] = true
		if err := c.transport.Register(name, node.Handle); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.metrics.nodesLive.Set(float64(len(c.names)))
	c.metrics.ringPoints.Set(float64(ring.Points()))
	return c, nil
}

// handleFrame is the router's transport handler: heartbeat pongs. It
// takes only dirMu — node handlers run synchronously under mu on the
// loopback transport, and the pong they send must not re-enter the
// routing lock.
func (c *Cluster) handleFrame(frame []byte) error {
	m, err := DecodeMessage(frame)
	if err != nil {
		return err
	}
	if m.Kind != MsgPong {
		return fmt.Errorf("%w: router got kind %v", ErrBadMessage, m.Kind)
	}
	c.dirMu.Lock()
	if m.T > c.lastPong[m.From] {
		c.lastPong[m.From] = m.T
	}
	c.dirMu.Unlock()
	return nil
}

// send encodes and delivers one router→node message. Caller holds mu
// (the encode scratch is mu-guarded). The caller does the per-reason
// drop accounting: the dropped-items metrics count items, so an eaten
// control frame (ping, open) is not a "dropped item".
func (c *Cluster) send(m *Message) error {
	if c.cfg.Drop != nil && c.cfg.Drop(m) {
		return errDroppedByFilter
	}
	frame, err := EncodeMessage(c.encBuf[:0], m)
	if err != nil {
		return err
	}
	c.encBuf = frame[:0]
	c.metrics.messagesSent.Add(1)
	return c.transport.Send(m.To, frame)
}

// errDroppedByFilter marks a frame the fault filter ate — already
// counted, distinct from a transport failure.
var errDroppedByFilter = errors.New("cluster: dropped by fault filter")

// Owner returns the member currently owning the session key.
func (c *Cluster) Owner(session string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner := c.ring.Owner(session)
	return owner, owner != ""
}

// Node returns a member by name (tests and the demo).
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Members returns the static membership, sorted.
func (c *Cluster) Members() []string { return append([]string(nil), c.names...) }

// Open admits a session: the profile is replicated to every live
// member (once per key — membership is static, so a key replicated at
// first open is everywhere it can ever be needed), then the owning
// node opens the session through its replicated store.
func (c *Cluster) Open(session, key string, p *core.Profile) error {
	if session == "" || key == "" {
		return fmt.Errorf("cluster: open needs session and key")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	return c.openLocked(session, key, p)
}

// OpenMany admits a fleet in one pass: every distinct profile key
// resolves through one profiles.GetMany (M loader calls for N
// sessions, cold loads overlapping), then each session opens under a
// single acquisition of the routing lock — replication still happens
// once per key, ever. The returned slice aligns with opens; a broken
// profile or bad open fails only its own slot.
func (c *Cluster) OpenMany(opens []serve.KeyedOpen, profiles *profilestore.Store) []error {
	errs := make([]error, len(opens))
	if len(opens) == 0 {
		return errs
	}
	// Resolve profiles before taking mu: loads may hit disk, and the
	// routing lock gates the whole data plane.
	keys := make([]string, len(opens))
	for i, o := range opens {
		keys[i] = o.Key
	}
	ps, perrs := profiles.GetMany(keys)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		for i := range errs {
			errs[i] = ErrClusterClosed
		}
		return errs
	}
	for i, o := range opens {
		if o.ID == "" || o.Key == "" {
			errs[i] = fmt.Errorf("cluster: open needs session and key")
			continue
		}
		if perrs[i] != nil {
			errs[i] = fmt.Errorf("cluster: resolve profile %q for %q: %w", o.Key, o.ID, perrs[i])
			continue
		}
		errs[i] = c.openLocked(o.ID, o.Key, ps[i])
	}
	return errs
}

// openLocked is the admission body shared by Open and OpenMany.
// Caller holds mu and has checked closed.
func (c *Cluster) openLocked(session, key string, p *core.Profile) error {
	if !c.repl[key] {
		var buf bytes.Buffer
		if err := core.WriteProfile(&buf, p); err != nil {
			return fmt.Errorf("cluster: encode profile %q: %w", key, err)
		}
		blob := buf.Bytes()
		for _, name := range c.names {
			if !c.live[name] {
				continue
			}
			if err := c.send(&Message{Kind: MsgProfile, To: name, Key: key, Profile: blob}); err != nil && !errors.Is(err, errDroppedByFilter) {
				return fmt.Errorf("cluster: replicate %q to %s: %w", key, name, err)
			}
		}
		c.repl[key] = true
	}
	owner := c.ring.Owner(session)
	if owner == "" {
		return ErrNoMembers
	}
	if err := c.send(&Message{Kind: MsgOpen, To: owner, Session: session, Key: key}); err != nil {
		return fmt.Errorf("cluster: open %q on %s: %w", session, owner, err)
	}
	c.dirMu.Lock()
	c.dir[session] = &dirEntry{node: owner, key: key}
	c.metrics.sessions.Set(float64(len(c.dir)))
	c.dirMu.Unlock()
	return nil
}

// CloseSession closes a session cluster-wide.
func (c *Cluster) CloseSession(session string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClusterClosed
	}
	c.dirMu.Lock()
	e := c.dir[session]
	delete(c.dir, session)
	c.metrics.sessions.Set(float64(len(c.dir)))
	c.dirMu.Unlock()
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSession, session)
	}
	return c.send(&Message{Kind: MsgClose, To: e.node, Session: session})
}

// Push routes one item.
func (c *Cluster) Push(it serve.Item) {
	var one [1]serve.Item
	one[0] = it
	c.PushBatch(one[:])
}

// PushBatch routes a batch: items are grouped by owning node (session
// order within a node preserved), sent as MsgItems frames, and the
// router clock advances to the batch's max timestamp — which is also
// what drives the heartbeat/failure detector. Accounting:
//
//	Routed == Delivered + DroppedPartition + DroppedDown + DroppedUnowned
//
// with Delivered items landing in the member managers' own Total().
func (c *Cluster) PushBatch(items []serve.Item) {
	if len(items) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.metrics.routedItems.Add(uint64(len(items)))

	// Group per node, preserving item order within each node.
	var (
		batch = make(map[string][]serve.Item, len(c.names))
		maxT  = c.clock
		haveT = c.haveClock
	)
	c.dirMu.Lock()
	for i := range items {
		it := items[i]
		e := c.dir[it.Session]
		if e == nil {
			c.metrics.droppedUnowned.Add(1)
			continue
		}
		if !c.live[e.node] {
			c.metrics.droppedDown.Add(1)
			continue
		}
		batch[e.node] = append(batch[e.node], it)
		if t := itemTime(&it); t > maxT || !haveT {
			maxT, haveT = t, true
		}
	}
	c.dirMu.Unlock()

	// Deterministic node order for the sends.
	for _, name := range c.names {
		its := batch[name]
		for len(its) > 0 {
			n := len(its)
			if n > maxItemsPerMsg {
				n = maxItemsPerMsg
			}
			chunk := its[:n]
			its = its[n:]
			m := &Message{Kind: MsgItems, To: name, Items: chunk, T: batchMaxT(chunk)}
			switch err := c.send(m); {
			case err == nil:
				c.metrics.deliveredItems.Add(uint64(n))
			case errors.Is(err, errDroppedByFilter):
				c.metrics.droppedPartition.Add(uint64(n))
			case errors.Is(err, ErrNodeDown):
				c.metrics.droppedDown.Add(uint64(n))
			default:
				c.metrics.droppedDown.Add(uint64(n))
			}
		}
	}
	if haveT {
		c.clock, c.haveClock = maxT, true
		c.maybeHeartbeat()
	}
}

// itemTime extracts an item's stream timestamp.
func itemTime(it *serve.Item) float64 {
	switch it.Kind {
	case serve.KindPhase:
		return it.Time
	case serve.KindFrame:
		if it.Frame != nil {
			return it.Frame.Time
		}
		return 0
	case serve.KindIMU:
		return it.IMU.Time
	case serve.KindCamera:
		return it.Camera.Time
	default:
		return 0
	}
}

func batchMaxT(items []serve.Item) float64 {
	var t float64
	for i := range items {
		if v := itemTime(&items[i]); v > t {
			t = v
		}
	}
	return t
}

// Flush drains every live member's queues (concurrent mode).
func (c *Cluster) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range c.names {
		if c.live[name] {
			c.nodes[name].mgr.Flush()
		}
	}
}

// Health reports a session's degradation state on its current owner.
func (c *Cluster) Health(session string) (serve.Health, bool) {
	c.dirMu.Lock()
	e := c.dir[session]
	c.dirMu.Unlock()
	if e == nil {
		return serve.Healthy, false
	}
	return c.nodes[e.node].mgr.Health(session)
}

// Sessions returns the routing directory size.
func (c *Cluster) Sessions() int {
	c.dirMu.Lock()
	defer c.dirMu.Unlock()
	return len(c.dir)
}

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	liveN := 0
	for _, ok := range c.live {
		if ok {
			liveN++
		}
	}
	ringPts := c.ring.Points()
	c.mu.Unlock()
	m := &c.metrics
	return Stats{
		Nodes:            len(c.names),
		LiveNodes:        liveN,
		RingPoints:       ringPts,
		Sessions:         c.Sessions(),
		Routed:           m.routedItems.Value(),
		Delivered:        m.deliveredItems.Value(),
		DroppedPartition: m.droppedPartition.Value(),
		DroppedDown:      m.droppedDown.Value(),
		DroppedUnowned:   m.droppedUnowned.Value(),
		MessagesSent:     m.messagesSent.Value(),
		HeartbeatMisses:  m.heartbeatMisses.Value(),
		Reassignments:    m.reassignments.Value(),
		DrainHandoffs:    m.handoffDrain.Value(),
		FailoverHandoffs: m.handoffFailover.Value(),
	}
}

// CloseDrain gracefully stops every live member (queues processed,
// conservation identities exact) and closes the cluster. Sessions are
// not handed off — there is nowhere left to hand them — so this is
// fleet shutdown, not node maintenance; DrainNode is the latter.
func (c *Cluster) CloseDrain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, name := range c.names {
		if c.live[name] {
			c.nodes[name].mgr.CloseDrain()
		}
	}
	c.metrics.nodesLive.Set(0)
}

// Close hard-stops every member and the cluster.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, node := range c.nodes {
		if node.mgr != nil {
			node.mgr.Close()
		}
	}
	c.metrics.nodesLive.Set(0)
}

// sortedDirSessions returns the directory's sessions owned by node,
// sorted — the deterministic iteration order every reassignment uses.
func (c *Cluster) sortedDirSessions(node string) []string {
	c.dirMu.Lock()
	var ids []string
	for id, e := range c.dir {
		if e.node == node {
			ids = append(ids, id)
		}
	}
	c.dirMu.Unlock()
	sort.Strings(ids)
	return ids
}
