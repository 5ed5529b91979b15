package cluster

import "vihot/internal/obs"

// clusterMetrics is the vihot_cluster_* series (DESIGN.md §14). Like
// serve's counters they always exist — a private registry backs them
// when Config.Metrics is nil — so Stats() works uninstrumented.
type clusterMetrics struct {
	nodesLive  *obs.Gauge
	ringPoints *obs.Gauge
	sessions   *obs.Gauge

	routedItems    *obs.Counter
	deliveredItems *obs.Counter

	droppedPartition *obs.Counter // frames eaten by the fault filter
	droppedDown      *obs.Counter // items addressed to a dead node
	droppedUnowned   *obs.Counter // items for sessions the router never opened

	messagesSent    *obs.Counter
	heartbeatMisses *obs.Counter
	reassignments   *obs.Counter // ring rebuilds (drain or failover)
	handoffDrain    *obs.Counter
	handoffFailover *obs.Counter
}

func newClusterMetrics(reg *obs.Registry) clusterMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	dropped := func(reason string) *obs.Counter {
		return reg.Counter("vihot_cluster_dropped_items_total",
			"items the router could not deliver", "reason", reason)
	}
	handoffs := func(reason string) *obs.Counter {
		return reg.Counter("vihot_cluster_handoffs_total",
			"sessions moved between nodes", "reason", reason)
	}
	return clusterMetrics{
		nodesLive:  reg.Gauge("vihot_cluster_nodes", "live member nodes"),
		ringPoints: reg.Gauge("vihot_cluster_ring_points", "virtual nodes on the hash ring"),
		sessions:   reg.Gauge("vihot_cluster_sessions", "sessions in the routing directory"),

		routedItems:    reg.Counter("vihot_cluster_routed_items_total", "items accepted for routing"),
		deliveredItems: reg.Counter("vihot_cluster_delivered_items_total", "items delivered to a member node"),

		droppedPartition: dropped("partition"),
		droppedDown:      dropped("node_down"),
		droppedUnowned:   dropped("unowned"),

		messagesSent:    reg.Counter("vihot_cluster_messages_sent_total", "cluster frames sent"),
		heartbeatMisses: reg.Counter("vihot_cluster_heartbeat_misses_total", "heartbeat intervals with no pong"),
		reassignments:   reg.Counter("vihot_cluster_reassignments_total", "ring membership rebuilds"),
		handoffDrain:    handoffs("drain"),
		handoffFailover: handoffs("failover"),
	}
}

// Stats is one observation of the cluster counters (same monotone,
// not-a-consistent-cut caveat as serve.CounterSnapshot).
type Stats struct {
	Nodes      int
	LiveNodes  int
	RingPoints int
	Sessions   int

	Routed           uint64
	Delivered        uint64
	DroppedPartition uint64
	DroppedDown      uint64
	DroppedUnowned   uint64

	MessagesSent     uint64
	HeartbeatMisses  uint64
	Reassignments    uint64
	DrainHandoffs    uint64
	FailoverHandoffs uint64
}
