// Package cluster is the distributed serving tier: a static-membership
// coordinator that consistent-hashes session keys onto N member nodes,
// each node a serve.Manager fed over the cluster's length-prefixed
// wire envelope. The coordinator routes opens and items to the owning
// node, replicates driver profiles to every member on open, detects
// node death with a stream-time heartbeat, and moves sessions between
// nodes on an orderly drain or a failover by reopening each one by key
// on its new owner (DESIGN.md §14).
//
// Everything is clocked on stream time, never wall time: routing, the
// failure detector, and the handoff protocol behave identically in
// concurrent and deterministic executions, which is what lets one
// chaos scenario replay bit-for-bit by seed.
package cluster

import (
	"fmt"
	"sort"
)

// ringVNodes is the virtual-node count per member. 64 points
// per node keeps the max/min session-load ratio under ~1.3 at the
// fleet sizes static membership targets (single-digit nodes) while the
// whole ring still fits in a few cache lines per member.
const ringVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle
// and the member that owns it.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring. Lookups are a binary
// search; membership changes build a new ring (Without), so readers
// never see a ring mid-edit.
type Ring struct {
	points []ringPoint
	nodes  []string // sorted members
}

// NewRing builds a ring over the given members with ringVNodes
// virtual nodes each. Member names must be unique and non-empty.
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	nodes := append([]string(nil), members...)
	sort.Strings(nodes)
	for i, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if i > 0 && nodes[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate member %q", n)
		}
	}
	r := &Ring{nodes: nodes, points: make([]ringPoint, 0, len(nodes)*ringVNodes)}
	for _, n := range nodes {
		for v := 0; v < ringVNodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(n, v), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Tie-break on the name so point order (and therefore ownership)
		// is total even across a 64-bit hash collision.
		return a.node < b.node
	})
	return r, nil
}

// hash64 is FNV-1a over the key — the same family the serve shard
// router and the profile-store shards use, widened to 64 bits — put
// through a finalizer mix. The mix matters: raw FNV-1a gives a byte
// near the end of the key only one multiply of avalanche, so the
// sequential session IDs real deployments mint ("driver-00",
// "driver-01", …) land nearly adjacent on the circle and pile onto
// one member. The finalizer spreads those last-byte deltas across all
// 64 bits.
func hash64(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the 64-bit avalanche finalizer (Murmur3/SplitMix family).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnodeHash positions one virtual node: the member name FNV-1a'd with
// the vnode ordinal folded in byte by byte (no allocation), then
// finalized. Without the mix, one member's vnodes differ only in a
// trailing ordinal byte and sort into contiguous runs — giant
// single-member arcs instead of an interleaved ring.
func vnodeHash(node string, v int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= 1099511628211
	}
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= 1099511628211
	}
	return mix64(h)
}

// Owner returns the member owning key: the first ring point clockwise
// from the key's hash. An empty ring owns nothing ("").
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Without returns a new ring with the member removed. Keys owned by
// surviving members keep their owners — the consistent-hashing
// property a reassignment relies on — and only the removed member's
// arcs move.
func (r *Ring) Without(name string) (*Ring, error) {
	nodes := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != name {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == len(r.nodes) {
		return nil, fmt.Errorf("cluster: no member %q", name)
	}
	if len(nodes) == 0 {
		// The last member left: a valid, empty ring that owns nothing.
		return &Ring{}, nil
	}
	return NewRing(nodes)
}

// Members returns the ring's members, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.nodes...) }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.nodes) }

// Points returns the virtual-node count (for the ring-size gauge).
func (r *Ring) Points() int { return len(r.points) }
