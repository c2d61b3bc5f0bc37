// Package cluster is the coherence kernel of the Speed Kit server side
// and its multi-node deployment. A Node holds the counting Cache Sketch
// (internal/cachesketch), the InvaliDB matcher (internal/invalidb), the
// adaptive TTL estimator (internal/ttl), optional WAL + snapshot
// durability (internal/durable) and the sketch's epoch; core.Service runs
// on one Node directly, or on a Cluster of them:
//
//   - A seeded consistent-hash ring (Ring) partitions resource IDs across
//     nodes; every coherence report for a key goes to exactly one owner,
//     so each node's counting sketch tracks a disjoint shard of the ID
//     space and per-node WAL recovery is self-contained.
//   - Registered continuous queries partition by registration ID across
//     the same ring while change events broadcast to every node —
//     InvaliDB's two-dimensional partitioning — so matching one event
//     costs each node only its 1/N slice of the registration set.
//   - Each node publishes a DeltaFrame (its flattened shard sketch plus
//     its generation and epoch), in process or over /v1/cluster/delta;
//     the Merger folds the frames into the single Bloom filter clients
//     fetch. The merged generation is the sum of the folded shard
//     generations plus a saturation-transition counter, and a merged
//     (non-saturated) snapshot is only served while every member's frame
//     is folded and fresh — so client Check semantics are exactly the
//     single-node ones.
//
// GDPR: this package is shared infrastructure in the same sense as the
// CDN and the durability layer — only anonymous coherence metadata
// (resource IDs, generations, filter bits) may ever flow through it. The
// gdprboundary analyzer enforces the import fence and piiflow treats the
// report writers as sinks.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the per-member virtual-node count. 64 points per
// member keeps the ring's load spread within a few percent of uniform for
// small clusters while the ring stays cheap to rebuild.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by a
// member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a seeded consistent-hash ring with virtual nodes. It is
// immutable after construction — rebalancing produces a new Ring — and a
// deterministic function of (seed, virtual-node count, member set), so
// every node of a deployment derives an identical ring without any
// coordination, and twin seeded runs shard identically.
type Ring struct {
	seed    int64
	vnodes  int
	members []string
	points  []ringPoint
}

// NewRing builds the ring for the given member names. Duplicate names are
// collapsed; member order does not matter (the set is sorted first).
// vnodes <= 0 selects DefaultVirtualNodes.
func NewRing(seed int64, vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		seed:    seed,
		vnodes:  vnodes,
		members: uniq,
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for _, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   mix64(fnv64(fmt.Sprintf("%s#%d", m, v)) ^ uint64(seed)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break by name so the ring stays
		// a deterministic function of the member set.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// fnv64 is the inline FNV-1a digest, matching the hashing idiom used by
// the Bloom filters and the InvaliDB collection sharder.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the SplitMix64 finalizer. FNV-1a's low bits correlate for
// short, similar keys (product IDs share long prefixes); the finalizer
// avalanche makes every output bit depend on every input bit, which is
// what keeps the ring's arc lengths — and therefore shard sizes — close
// to uniform.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Owner returns the member owning key: the one whose virtual node is the
// first at or clockwise of the key's ring position. An empty ring owns
// nothing and returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := mix64(fnv64(key) ^ uint64(r.seed))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the ring's start
	}
	return r.points[i].member
}

// Members returns the sorted member set (a copy).
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// Without returns the ring with one member removed — the rebalanced
// layout after a permanent node departure. Consistent hashing's defining
// property, pinned by the rebalance tests: only keys owned by the removed
// member move (≈1/N of the space); every other key keeps its owner.
func (r *Ring) Without(member string) *Ring {
	remaining := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			remaining = append(remaining, m)
		}
	}
	return NewRing(r.seed, r.vnodes, remaining)
}
