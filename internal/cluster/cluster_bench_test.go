package cluster

import (
	"fmt"
	"testing"

	"speedkit/internal/clock"
	"speedkit/internal/query"
	"speedkit/internal/storage"
)

// benchClusterFixture builds an n-node cluster with `regs` continuous
// queries in ONE collection — the worst case for a single matcher, since
// collection-hash sharding inside one node cannot split them. The ring
// partitions the registrations by ID across nodes, so each node's shard
// holds ≈regs/n of them. It returns the most-loaded node (the critical
// path of a broadcast round: the merge waits on the slowest shard) and a
// precomputed event stream.
func benchClusterFixture(b *testing.B, n, regs int) (*Node, []storage.ChangeEvent) {
	b.Helper()
	clk := clock.NewSimulated(epoch)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(NodeConfig{
			Member:         fmt.Sprintf("node-%d", i),
			Clock:          clk,
			SketchCapacity: uint64(regs) * 2,
		})
	}
	c, err := New(Config{Seed: 42}, nodes)
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	for i := 0; i < regs; i++ {
		if err := c.Register(fmt.Sprintf("reg-%05d", i), query.Query{
			Collection: "products",
			Filter:     query.Gte("price", float64(i%100)),
		}); err != nil {
			b.Fatalf("register: %v", err)
		}
	}
	var busiest *Node
	most := -1
	for _, node := range nodes {
		if regCount := node.Engine().Registered(); regCount > most {
			most, busiest = regCount, node
		}
	}
	events := make([]storage.ChangeEvent, 256)
	for i := range events {
		id := fmt.Sprintf("doc-%04d", i)
		events[i] = storage.ChangeEvent{
			Collection: "products",
			ID:         id,
			Kind:       storage.ChangeUpdate,
			Before:     query.NewDoc(id, map[string]any{"price": float64(40 + i%10)}),
			After:      query.NewDoc(id, map[string]any{"price": float64(45 + i%10)}),
			Version:    uint64(i + 1),
		}
	}
	return busiest, events
}

// BenchmarkClusterMatching measures the critical-path per-event matching
// cost of a broadcast round as the cluster grows. Every registration
// lives in one collection, so a single node carries the full matching
// load; sharding registrations by ID over the ring divides it, and the
// busiest node's per-event cost — the latency a broadcast round cannot
// beat — should drop near-linearly from nodes-1 to nodes-8. This is the
// bench behind BENCH_cluster.json (suite "cluster-matching").
func BenchmarkClusterMatching(b *testing.B) {
	const regs = 2048
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			busiest, events := benchClusterFixture(b, n, regs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := busiest.Process(events[i%len(events)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
